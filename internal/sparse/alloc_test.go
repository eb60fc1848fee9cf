package sparse

// Zero-allocation regression guards for the //irfusion:hotpath
// kernels: each test pins a single-worker pool (the serial fast
// path), warms the kernel up once, then asserts zero steady-state
// allocations with testing.AllocsPerRun. Together with the static
// hotpath rule of cmd/irfusionlint these are the teeth that keep the
// inner solver loops off the garbage collector.
//
// The tests skip under the race detector: its instrumentation
// allocates shadow state inside the measured functions, so the counts
// are meaningless there (the -race CI job still runs the kernels'
// correctness tests).

import (
	"testing"

	"irfusion/internal/parallel"
	"irfusion/internal/race"
)

// pinSerialPool swaps in a 1-worker pool for the duration of the test
// so every kernel takes its serial fast path regardless of the
// machine's core count or env knobs.
func pinSerialPool(t *testing.T) {
	t.Helper()
	prev := parallel.SetDefault(parallel.New(1))
	t.Cleanup(func() { parallel.SetDefault(prev) })
}

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fn() // warm-up: one-time caches, lazy pool construction
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per run in steady state, want 0", name, allocs)
	}
}

func TestZeroAllocMulVec(t *testing.T) {
	pinSerialPool(t)
	a := laplacian2D(24, 24)
	x := make([]float64, a.Cols())
	y := make([]float64, a.Rows())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	requireZeroAllocs(t, "CSR.MulVec", func() { a.MulVec(y, x) })
}

func TestZeroAllocDotNormAxpy(t *testing.T) {
	pinSerialPool(t)
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

func TestZeroAllocJacobiSweepsDiag(t *testing.T) {
	pinSerialPool(t)
	a := laplacian2D(16, 16)
	n := a.Rows()
	x := make([]float64, n)
	b := make([]float64, n)
	scratch := make([]float64, n)
	diag := a.Diag()
	for i := range b {
		b[i] = 1
	}
	requireZeroAllocs(t, "JacobiSweepsDiag", func() {
		JacobiSweepsDiag(a, x, b, diag, 2.0/3.0, 2, scratch)
	})
}

func TestZeroAllocGaussSeidel(t *testing.T) {
	pinSerialPool(t)
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

// TestSpmvPartitionCache proves the partition cache makes the
// parallel dispatch path allocation-stable: after the first multiply
// fills the cache, repeated multiplies on a multi-worker pool no
// longer rebuild the row partition (the remaining per-call allocations
// are the pool dispatch closures, bounded and small).
func TestSpmvPartitionCache(t *testing.T) {
	prev := parallel.SetDefault(parallel.New(4).SetMinWork(1))
	t.Cleanup(func() { parallel.SetDefault(prev) })
	a := laplacian2D(16, 16)
	x := make([]float64, a.Cols())
	y := make([]float64, a.Rows())
	for i := range x {
		x[i] = 1
	}
	a.MulVec(y, x) // fills the cache
	p := a.part.Load()
	if p == nil {
		t.Fatal("partition cache not filled by parallel MulVec")
	}
	a.MulVec(y, x)
	if q := a.part.Load(); q != p {
		t.Error("partition rebuilt on steady-state MulVec; cache not reused")
	}
	bounds := a.partition(p.parts)
	if &bounds[0] != &p.bounds[0] {
		t.Error("partition() returned a fresh slice for a cached part count")
	}
}
