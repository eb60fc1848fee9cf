package sparse

// Zero-allocation regression guards for the //irfusion:hotpath
// kernels: each test warms the kernel up once, then asserts zero
// steady-state allocations with testing.AllocsPerRun. The kernels are
// serial loops that never touch the worker pool, so the tests run
// under whatever pool the process has. Together with the static
// hotpath rule of cmd/irfusionlint these are the teeth that keep the
// inner solver loops off the garbage collector.
//
// The tests skip under the race detector: its instrumentation
// allocates shadow state inside the measured functions, so the counts
// are meaningless there (the -race CI job still runs the kernels'
// correctness tests).

import (
	"testing"

	"irfusion/internal/race"
)

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fn() // warm-up
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per run in steady state, want 0", name, allocs)
	}
}

func TestZeroAllocMulVec(t *testing.T) {
	a := laplacian2D(24, 24)
	x := make([]float64, a.Cols())
	y := make([]float64, a.Rows())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	requireZeroAllocs(t, "CSR.MulVec", func() { a.MulVec(y, x) })
}

func TestZeroAllocDotNormAxpy(t *testing.T) {
	n := 4096
	u := make([]float64, n)
	v := make([]float64, n)
	for i := range u {
		u[i] = float64(i%13) * 0.25
		v[i] = float64(i%11) * 0.5
	}
	var sink float64
	requireZeroAllocs(t, "Dot", func() { sink += Dot(u, v) })
	requireZeroAllocs(t, "Norm2", func() { sink += Norm2(u) })
	requireZeroAllocs(t, "Axpy", func() { Axpy(1e-9, u, v) })
	_ = sink
}

func TestZeroAllocGaussSeidel(t *testing.T) {
	a := laplacian2D(16, 16)
	n := a.Rows()
	x := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	requireZeroAllocs(t, "SymmetricGaussSeidel", func() {
		SymmetricGaussSeidel(a, x, b, 1)
	})
}
