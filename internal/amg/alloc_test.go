package amg

// Zero-allocation regression guards for the cycle kernels and the
// preconditioner application built from them; see
// internal/sparse/alloc_test.go for the pattern rationale.

import (
	"testing"

	"irfusion/internal/race"
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

func TestZeroAllocTransferKernels(t *testing.T) {
	a := laplacian2D(16, 16)
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) < 2 {
		t.Skip("hierarchy too shallow to exercise transfer kernels")
	}
	lvl := h.Levels[0]
	fine := make([]float64, lvl.A.Rows())
	coarse := make([]float64, h.Levels[1].A.Rows())
	for i := range fine {
		fine[i] = float64(i%7) + 1
	}
	for i := range coarse {
		coarse[i] = float64(i%5) + 1
	}
	requireZeroAllocs(t, "restrict", func() { restrict(lvl.agg, coarse, fine) })
	requireZeroAllocs(t, "prolongAdd", func() { prolongAdd(lvl.agg, fine, coarse) })
}

func TestZeroAllocSweepKernels(t *testing.T) {
	a := laplacian2D(16, 16)
	dpos, err := diagPositions(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	x, r, b := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	requireZeroAllocs(t, "sweepResidual", func() { sweepResidual(a, dpos, x, r, b) })
	requireZeroAllocs(t, "sweepBackward", func() { sweepBackward(a, dpos, x, b) })
}

func TestZeroAllocApply(t *testing.T) {
	a := laplacian2D(40, 40)
	for _, cyc := range []Cycle{VCycle, KCycle} {
		opts := DefaultOptions()
		opts.Cycle = cyc
		h, err := Build(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumLevels() < 3 {
			t.Fatalf("%d levels: too shallow to run the accelerated level", h.NumLevels())
		}
		z, r := make([]float64, a.Rows()), make([]float64, a.Rows())
		for i := range r {
			r[i] = float64(i%5) - 2
		}
		requireZeroAllocs(t, cyc.String()+"-cycle Apply", func() { h.Apply(z, r) })
	}
}
