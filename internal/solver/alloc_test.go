package solver

// Zero-allocation regression guards for the preconditioner hot paths;
// see internal/sparse/alloc_test.go for the pattern rationale.

import (
	"testing"

	"irfusion/internal/race"
	"irfusion/internal/sparse"
)

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fn()
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per run in steady state, want 0", name, allocs)
	}
}

func allocTestSystem() (*sparse.CSR, []float64, []float64) {
	a := laplacian2D(16, 16)
	n := a.Rows()
	z := make([]float64, n)
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%9) + 1
	}
	return a, z, r
}

func TestZeroAllocIdentityApply(t *testing.T) {
	_, z, r := allocTestSystem()
	requireZeroAllocs(t, "Identity.Apply", func() { Identity{}.Apply(z, r) })
}

func TestZeroAllocJacobiApply(t *testing.T) {
	a, z, r := allocTestSystem()
	j := NewJacobi(a)
	requireZeroAllocs(t, "Jacobi.Apply", func() { j.Apply(z, r) })
}

func TestZeroAllocSSORApply(t *testing.T) {
	a, z, r := allocTestSystem()
	s := NewSSOR(a, 1)
	requireZeroAllocs(t, "SSOR.Apply", func() { s.Apply(z, r) })
}

// TestPCGAllocsIndependentOfIterations: a solve allocates its work
// vectors once, and no iteration allocates anything. A kernel that
// builds a closure per call (as the pool dispatch did) makes the count
// grow with MaxIter.
func TestPCGAllocsIndependentOfIterations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	a, _, b := allocTestSystem()
	m := NewJacobi(a)
	x := make([]float64, len(b))
	allocs := func(iters int) float64 {
		opts := Options{MaxIter: iters, Flexible: true}
		return testing.AllocsPerRun(20, func() {
			sparse.Zero(x)
			if res, err := PCG(a, x, b, m, opts); err != nil || res.Iterations != iters {
				t.Fatalf("MaxIter %d: %d iterations, err %v", iters, res.Iterations, err)
			}
		})
	}
	if few, many := allocs(5), allocs(50); few != many {
		t.Errorf("Jacobi-PCG allocates %v per solve at MaxIter 5 and %v at 50", few, many)
	}
}
