package amg

import "irfusion/internal/sparse"

// coarsen performs one coarsening step: it assigns every fine node to
// exactly one aggregate (the prolongation is P[i, agg[i]] = 1) and
// forms the Galerkin coarse operator PᵀAP. With aggressive coarsening
// two pairwise passes are composed — the second pairs the aggregates
// of the first on their own coarse operator — yielding aggregates of
// up to four nodes ("double pairwise aggregation").
//
// It returns (nil, nil) when no coarsening is possible (every node
// isolated).
func coarsen(a *sparse.CSR, aggressive bool) ([]int, *sparse.CSR) {
	agg, n1 := pairwise(a)
	if agg == nil {
		return nil, nil
	}
	a1 := galerkin(a, agg, n1)
	if !aggressive {
		return agg, a1
	}
	agg2, n2 := pairwise(a1)
	if agg2 == nil || n2 >= n1 {
		return agg, a1
	}
	for i, g := range agg {
		agg[i] = agg2[g]
	}
	return agg, galerkin(a1, agg2, n2)
}

// galerkin forms the coarse operator PᵀAP for the 0/1 aggregation map
// P[i, agg[i]] = 1, which needs no product: A_c[agg[i], agg[j]] += a_ij.
// Coarse row g gathers the rows of its members in ascending order (so
// every sum has one fixed order) and its few entries are then
// insertion-sorted by column.
func galerkin(a *sparse.CSR, agg []int, nAgg int) *sparse.CSR {
	// Members of each aggregate, ascending: a counting sort by aggregate.
	start := make([]int, nAgg+1)
	for _, g := range agg {
		start[g+1]++
	}
	for g := 0; g < nAgg; g++ {
		start[g+1] += start[g]
	}
	members := make([]int, len(agg))
	fill := append([]int(nil), start[:nAgg]...)
	for i, g := range agg {
		members[fill[g]] = i
		fill[g]++
	}

	// The coarse operator has at most as many entries as the fine one.
	cols := make([]int, 0, a.NNZ())
	vals := make([]float64, 0, a.NNZ())
	rowPtr := make([]int, 1, nAgg+1)
	// slot[c] is where coarse column c was last appended; it belongs to
	// the row being gathered exactly when it lies in that row's unsorted
	// tail and still holds c.
	slot := fill
	for g := 0; g < nAgg; g++ {
		lo := len(cols)
		for _, i := range members[start[g]:start[g+1]] {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				c := agg[a.ColInd[p]]
				if s := slot[c]; s >= lo && s < len(cols) && cols[s] == c {
					vals[s] += a.Val[p]
				} else {
					slot[c] = len(cols)
					cols = append(cols, c)
					vals = append(vals, a.Val[p])
				}
			}
		}
		// Sort the row by column and drop cancelled entries, in place.
		n := lo
		for k := lo; k < len(cols); k++ {
			c, v := cols[k], vals[k]
			if v == 0 { //irfusion:exact drop only sums that cancel to exactly zero; rounding residue must stay stored
				continue
			}
			q := n
			for ; q > lo && cols[q-1] > c; q-- {
				cols[q], vals[q] = cols[q-1], vals[q-1]
			}
			cols[q], vals[q] = c, v
			n++
		}
		cols, vals = cols[:n], vals[:n]
		rowPtr = append(rowPtr, n)
	}
	return &sparse.CSR{
		RowsN: nAgg, ColsN: nAgg, RowPtr: rowPtr,
		ColInd: append([]int(nil), cols...), Val: append([]float64(nil), vals...),
	}
}

// pairwise performs one greedy pairwise-aggregation pass driven by
// strong negative couplings. It returns each node's aggregate and the
// number of aggregates, or (nil, 0) when no pair could be formed at all
// and the pass would not coarsen.
func pairwise(a *sparse.CSR) ([]int, int) {
	n := a.Rows()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Order nodes by ascending degree (fewer strong neighbors first),
	// which matches the heuristic of aggregating weakly connected
	// boundary nodes early before their partners are consumed. A
	// counting sort by degree (at most n) keeps setup O(n + nnz).
	first := make([]int, n+2)
	for i := 0; i < n; i++ {
		first[a.RowPtr[i+1]-a.RowPtr[i]+1]++
	}
	for d := 0; d <= n; d++ {
		first[d+1] += first[d]
	}
	order := make([]int, n)
	for i := 0; i < n; i++ {
		d := a.RowPtr[i+1] - a.RowPtr[i]
		order[first[d]] = i
		first[d]++
	}

	nAgg := 0
	paired := 0
	for _, i := range order {
		if assign[i] != -1 {
			continue
		}
		// Strongest available negative coupling of i.
		maxNeg := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColInd[p]
			if j != i && -a.Val[p] > maxNeg {
				maxNeg = -a.Val[p]
			}
		}
		best := -1
		bestVal := 0.0
		if maxNeg > 0 {
			thresh := strength * maxNeg
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				j := a.ColInd[p]
				if j == i || assign[j] != -1 {
					continue
				}
				if v := -a.Val[p]; v >= thresh && v > bestVal {
					bestVal = v
					best = j
				}
			}
		}
		assign[i] = nAgg
		if best != -1 {
			assign[best] = nAgg
			paired++
		}
		nAgg++
	}
	if paired == 0 {
		return nil, 0
	}
	return assign, nAgg
}
