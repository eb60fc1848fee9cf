package solver

import (
	"testing"

	"irfusion/internal/parallel"
)

// TestPCGDeterministicAcrossWorkersAndRuns is the reproducibility
// contract of the numerical stage: every kernel is a serial loop and
// every inner product sums in index order, so the PCG residual history
// is bitwise identical across repeated runs and whatever the width of
// the process's worker pool.
func TestPCGDeterministicAcrossWorkersAndRuns(t *testing.T) {
	a, _, b := randomSystem(48, 48, 11)

	solve := func() []float64 {
		x := make([]float64, len(b))
		res, err := PCG(a, x, b, NewSSOR(a, 2), RoughOptions(15))
		if err != nil {
			t.Fatal(err)
		}
		return res.History
	}

	prev := parallel.Default()
	defer parallel.SetDefault(prev)

	var ref []float64
	for _, w := range []int{1, 2, 3, 4, 8} {
		p := parallel.New(w)
		parallel.SetDefault(p)
		for run := 0; run < 3; run++ {
			hist := solve()
			if ref == nil {
				ref = hist
				continue
			}
			if len(hist) != len(ref) {
				t.Fatalf("workers=%d run=%d: history length %d, want %d", w, run, len(hist), len(ref))
			}
			for k := range hist {
				if hist[k] != ref[k] {
					t.Fatalf("workers=%d run=%d: history[%d] = %x, want %x",
						w, run, k, hist[k], ref[k])
				}
			}
		}
		parallel.SetDefault(prev)
		p.Close()
	}
}

// TestPCGParallelSolutionMatchesSerial checks a converged Jacobi-PCG
// solve under a 4-worker pool lands on the 1-worker answer, bit for
// bit, and on the ground truth within solver tolerance.
func TestPCGParallelSolutionMatchesSerial(t *testing.T) {
	a, want, b := randomSystem(32, 32, 5)

	solve := func() []float64 {
		x := make([]float64, len(b))
		res, err := PCG(a, x, b, NewJacobi(a), Options{Tol: 1e-12, MaxIter: 5000})
		if err != nil || !res.Converged {
			t.Fatalf("err=%v converged=%v", err, res.Converged)
		}
		return x
	}

	prev := parallel.SetDefault(parallel.New(1))
	defer parallel.SetDefault(prev)
	serial := solve()

	p := parallel.New(4)
	parallel.SetDefault(p)
	defer p.Close()
	par := solve()

	for i := range par {
		if par[i] != serial[i] {
			t.Fatalf("4 workers: x[%d] = %x, 1 worker %x", i, par[i], serial[i])
		}
	}
	if d := MaxAbsDiff(par, want); d > 1e-6 {
		t.Errorf("solution misses ground truth by %v", d)
	}
}
