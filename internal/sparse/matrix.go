// Package sparse provides sparse-matrix primitives for power-grid
// analysis: triplet (COO) assembly, compressed sparse row (CSR) storage,
// matrix-vector products, classic smoothers, and Cholesky
// factorizations (dense and sparse) used as direct solvers
// and multigrid coarse-level solvers.
//
// All matrices hold float64 entries. The package is written for the
// symmetric positive-definite (SPD) systems that arise from modified
// nodal analysis of resistive power grids, but the general routines
// (assembly, SpMV, transpose) work for arbitrary sparsity. Every
// kernel is one serial loop: on two cores a worker-pool SpMV broke even
// only past ~150k stored entries, and the largest die the service
// admits has 87 116 (EXPERIMENTS.md "One serial numerical core").
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Triplet accumulates matrix entries in coordinate form. Duplicate
// entries for the same (row, col) are summed when converting to CSR,
// which is exactly the semantics needed for MNA stamping.
type Triplet struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewTriplet returns an empty triplet accumulator of the given shape
// with capacity for nnzHint entries.
func NewTriplet(rows, cols, nnzHint int) *Triplet {
	return &Triplet{
		Rows: rows,
		Cols: cols,
		I:    make([]int, 0, nnzHint),
		J:    make([]int, 0, nnzHint),
		V:    make([]float64, 0, nnzHint),
	}
}

// Add appends the entry A[i,j] += v. It panics on out-of-range indices,
// since stamping bugs should fail loudly during assembly.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.Rows || j < 0 || j >= t.Cols {
		panic(fmt.Sprintf("sparse: triplet index (%d,%d) out of range %dx%d", i, j, t.Rows, t.Cols))
	}
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.V = append(t.V, v)
}

// NNZ reports the number of accumulated (possibly duplicate) entries.
func (t *Triplet) NNZ() int { return len(t.V) }

// ToCSR compresses the triplet into CSR form, summing duplicates and
// dropping exact zeros that result from cancellation. Column indices
// within each row are sorted.
func (t *Triplet) ToCSR() *CSR {
	n := t.Rows
	count := make([]int, n+1)
	for _, i := range t.I {
		count[i+1]++
	}
	for i := 0; i < n; i++ {
		count[i+1] += count[i]
	}
	// Scatter into row-grouped buffers.
	colBuf := make([]int, len(t.J))
	valBuf := make([]float64, len(t.V))
	next := make([]int, n)
	copy(next, count[:n])
	for k := range t.I {
		p := next[t.I[k]]
		colBuf[p] = t.J[k]
		valBuf[p] = t.V[k]
		next[t.I[k]]++
	}
	m := &CSR{RowsN: t.Rows, ColsN: t.Cols}
	m.RowPtr = make([]int, 1, n+1)
	m.ColInd = make([]int, 0, len(colBuf))
	m.Val = make([]float64, 0, len(valBuf))
	type ent struct {
		j int
		v float64
	}
	var row []ent
	for i := 0; i < n; i++ {
		lo, hi := count[i], count[i+1]
		row = row[:0]
		for p := lo; p < hi; p++ {
			row = append(row, ent{colBuf[p], valBuf[p]})
		}
		// The generic sort, not sort.Slice: no reflect swapper per row.
		// Neither is stable; duplicates are summed in the order sort.Slice
		// left them only because the standard library generates both from
		// one pdqsort template (go1.24; TestToCSRKeepsSortSliceOrdering).
		slices.SortFunc(row, func(a, b ent) int { return a.j - b.j })
		// Merge duplicates.
		for k := 0; k < len(row); {
			j := row[k].j
			sum := 0.0
			for k < len(row) && row[k].j == j {
				sum += row[k].v
				k++
			}
			if sum != 0 { //irfusion:exact drop only entries that cancel to exactly zero; rounding residue must stay stored
				m.ColInd = append(m.ColInd, j)
				m.Val = append(m.Val, sum)
			}
		}
		m.RowPtr = append(m.RowPtr, len(m.ColInd))
	}
	return m
}

// CSR is a compressed-sparse-row matrix. Within each row, column
// indices are strictly increasing.
type CSR struct {
	RowsN, ColsN int
	RowPtr       []int
	ColInd       []int
	Val          []float64
}

// Rows returns the number of rows.
//
//irfusion:hotpath
func (m *CSR) Rows() int { return m.RowsN }

// Cols returns the number of columns.
//
//irfusion:hotpath
func (m *CSR) Cols() int { return m.ColsN }

// NNZ returns the number of stored entries.
//
//irfusion:hotpath
func (m *CSR) NNZ() int { return len(m.Val) }

// FormatAuto is the one format name durable artifacts still spell.
// Shim for _bench/layers.go, which is frozen; it selects nothing and
// goes with ROADMAP item 1(b).
const FormatAuto = "auto"

// Operator returns the matrix itself: CSR is the only storage format.
// Shim for _bench/layers.go, which is frozen; goes with ROADMAP item 1(b).
//
//irfusion:hotpath
func (m *CSR) Operator() *CSR { return m }

// At returns A[i,j] (zero when the entry is not stored). Binary search
// within the row; intended for tests and diagnostics, not inner loops.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColInd[lo:hi], j)
	if lo+idx < hi && m.ColInd[lo+idx] == j {
		return m.Val[lo+idx]
	}
	return 0
}

// MulVec computes y = A·x. y must have length Rows and x length Cols;
// y is fully overwritten. Each y[i] is accumulated in column order.
//
// y and x must not alias: a row written early would be read by the
// rows after it. Passing the same slice for both panics (the common
// mistake); partially overlapping sub-slices cannot be detected
// without unsafe, are the caller's responsibility and yield undefined
// results.
//
//irfusion:hotpath
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.ColsN || len(y) != m.RowsN {
		panic("sparse: MulVec dimension mismatch")
	}
	if len(y) > 0 && len(x) > 0 && &y[0] == &x[0] {
		panic("sparse: MulVec: y and x must not alias")
	}
	for i := range y {
		sum := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			sum += m.Val[p] * x[m.ColInd[p]]
		}
		y[i] = sum
	}
}

// Diag extracts the diagonal into a new slice (zero where absent).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.RowsN)
	for i := 0; i < m.RowsN; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColInd[p] == i {
				d[i] = m.Val[p]
				break
			}
		}
	}
	return d
}

// transpose returns Aᵀ in CSR form.
func (m *CSR) transpose() *CSR {
	t := &CSR{RowsN: m.ColsN, ColsN: m.RowsN}
	count := make([]int, m.ColsN+1)
	for _, j := range m.ColInd {
		count[j+1]++
	}
	for j := 0; j < m.ColsN; j++ {
		count[j+1] += count[j]
	}
	t.RowPtr = make([]int, m.ColsN+1)
	copy(t.RowPtr, count)
	t.ColInd = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	next := make([]int, m.ColsN)
	copy(next, count[:m.ColsN])
	for i := 0; i < m.RowsN; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColInd[p]
			q := next[j]
			t.ColInd[q] = i
			t.Val[q] = m.Val[p]
			next[j]++
		}
	}
	return t
}

// Scale multiplies every stored entry by s in place.
func (m *CSR) Scale(s float64) {
	for i := range m.Val {
		m.Val[i] *= s
	}
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{RowsN: m.RowsN, ColsN: m.ColsN}
	c.RowPtr = append([]int(nil), m.RowPtr...)
	c.ColInd = append([]int(nil), m.ColInd...)
	c.Val = append([]float64(nil), m.Val...)
	return c
}

// IsSymmetric reports whether A equals Aᵀ within tolerance tol
// (relative to the largest magnitude of the compared pair).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.RowsN != m.ColsN {
		return false
	}
	t := m.transpose()
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := 0; i < m.RowsN; i++ {
		if m.RowPtr[i] != t.RowPtr[i] {
			return false
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColInd[p] != t.ColInd[p] {
				return false
			}
			a, b := m.Val[p], t.Val[p]
			scale := math.Max(math.Abs(a), math.Abs(b))
			if scale > 0 && math.Abs(a-b) > tol*scale {
				return false
			}
		}
	}
	return true
}

// Dense expands the matrix into a row-major dense slice of length
// Rows*Cols. For tests and coarse-level factorization only.
func (m *CSR) Dense() []float64 {
	d := make([]float64, m.RowsN*m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			d[i*m.ColsN+m.ColInd[p]] = m.Val[p]
		}
	}
	return d
}

// Dot returns the inner product of two equal-length vectors, summed
// in index order.
//
//irfusion:hotpath
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
//
//irfusion:hotpath
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Axpy computes y += alpha·x.
//
//irfusion:hotpath
func Axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Zero sets every element of v to zero.
//
//irfusion:hotpath
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
