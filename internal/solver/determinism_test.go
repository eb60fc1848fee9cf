package solver

import (
	"math"
	"testing"
)

// maxAbsDiff returns max_i |a_i − b_i|.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// TestPCGDeterministicAcrossWorkersAndRuns is the reproducibility
// contract of the numerical stage: every kernel is a serial loop and
// every inner product sums in index order, so the PCG residual history
// is bitwise identical across repeated runs (CI runs the suite at
// GOMAXPROCS 1, 2 and 8).
func TestPCGDeterministicAcrossWorkersAndRuns(t *testing.T) {
	a, _, b := randomSystem(48, 48, 11)

	var ref []float64
	for run := 0; run < 3; run++ {
		x := make([]float64, len(b))
		res, err := PCG(a, x, b, NewSSOR(a, 2), RoughOptions(15))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.History
			continue
		}
		if len(res.History) != len(ref) {
			t.Fatalf("run=%d: history length %d, want %d", run, len(res.History), len(ref))
		}
		for k, h := range res.History {
			if math.Float64bits(h) != math.Float64bits(ref[k]) {
				t.Fatalf("run=%d: history[%d] = %x, want %x", run, k, h, ref[k])
			}
		}
	}
}

// TestPCGParallelSolutionMatchesSerial checks a converged Jacobi-PCG
// solve lands on the ground truth within solver tolerance.
func TestPCGParallelSolutionMatchesSerial(t *testing.T) {
	a, want, b := randomSystem(32, 32, 5)
	x := make([]float64, len(b))
	res, err := PCG(a, x, b, NewJacobi(a), Options{Tol: 1e-12, MaxIter: 5000})
	if err != nil || !res.Converged {
		t.Fatalf("err=%v converged=%v", err, res.Converged)
	}
	if d := maxAbsDiff(x, want); d > 1e-6 {
		t.Errorf("solution misses ground truth by %v", d)
	}
}
