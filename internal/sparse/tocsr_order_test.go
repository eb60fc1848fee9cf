package sparse_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/pgen"
	"irfusion/internal/sparse"
)

// toCSRSortSlice is Triplet.ToCSR as it stood while it sorted every row
// with sort.Slice: the ordering (and with it the order duplicates are
// summed in) the current implementation must reproduce bit for bit.
// Both sorts are unstable: the equality pins the go1.24 standard
// library, where sort.Slice and slices.SortFunc are generated from one
// pdqsort template and permute equal keys identically. If a toolchain
// upgrade breaks this test with no change in the repository, the answer
// bits of every assembled system moved with it — re-record, don't patch.
func toCSRSortSlice(t *sparse.Triplet) *sparse.CSR {
	type ent struct {
		j int
		v float64
	}
	rows := make([][]ent, t.Rows)
	for k, i := range t.I {
		rows[i] = append(rows[i], ent{t.J[k], t.V[k]})
	}
	m := &sparse.CSR{RowsN: t.Rows, ColsN: t.Cols, RowPtr: []int{0}}
	for _, row := range rows {
		sort.Slice(row, func(a, b int) bool { return row[a].j < row[b].j })
		for k := 0; k < len(row); {
			j, sum := row[k].j, 0.0
			for ; k < len(row) && row[k].j == j; k++ {
				sum += row[k].v
			}
			if sum != 0 {
				m.ColInd = append(m.ColInd, j)
				m.Val = append(m.Val, sum)
			}
		}
		m.RowPtr = append(m.RowPtr, len(m.ColInd))
	}
	return m
}

func TestToCSRKeepsSortSliceOrdering(t *testing.T) {
	check := func(name string, tr *sparse.Triplet) {
		t.Helper()
		got, want := tr.ToCSR(), toCSRSortSlice(tr)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColInd, want.ColInd) {
			t.Fatalf("%s: structure differs from the sort.Slice ordering", name)
		}
		for p := range want.Val {
			if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
				t.Fatalf("%s: entry %d is %v, sort.Slice ordering gives %v", name, p, got.Val[p], want.Val[p])
			}
		}
	}

	// A 64 µm power grid, stamped the way circuit.Assemble stamps it.
	d, err := pgen.Generate(pgen.DefaultConfig("order", pgen.Real, 64, 64, 1001))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	tr := sparse.NewTriplet(sys.N(), sys.N(), 4*len(nw.Resistors))
	for _, r := range nw.Resistors {
		g := 1 / r.Ohms
		ra, rb := sys.Reduced[r.A], sys.Reduced[r.B]
		if ra >= 0 {
			tr.Add(ra, ra, g)
		}
		if rb >= 0 {
			tr.Add(rb, rb, g)
		}
		if ra >= 0 && rb >= 0 {
			tr.Add(ra, rb, -g)
			tr.Add(rb, ra, -g)
		}
	}
	check("pgen 64 µm", tr)

	// Rows of duplicates whose sum depends on the order it is taken in,
	// at every length around 12, where the library sorts stop being an
	// insertion sort (a hand-rolled one cut anywhere above fails here).
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 11, 12, 13, 14, 15, 16, 17, 40, 200} {
		tr := sparse.NewTriplet(1, 4, n)
		for k := 0; k < n; k++ {
			tr.Add(0, rng.Intn(4), math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40))
		}
		check("duplicates", tr)
	}
}
