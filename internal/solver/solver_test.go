package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"irfusion/internal/amg"
	"irfusion/internal/sparse"
)

func laplacian2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	t := sparse.NewTriplet(n, n, 5*n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			t.Add(i, i, 4)
			if x > 0 {
				t.Add(i, idx(x-1, y), -1)
			}
			if x < nx-1 {
				t.Add(i, idx(x+1, y), -1)
			}
			if y > 0 {
				t.Add(i, idx(x, y-1), -1)
			}
			if y < ny-1 {
				t.Add(i, idx(x, y+1), -1)
			}
		}
	}
	return t.ToCSR()
}

func randomSystem(nx, ny int, seed int64) (*sparse.CSR, []float64, []float64) {
	a := laplacian2D(nx, ny)
	n := a.Rows()
	rng := rand.New(rand.NewSource(seed))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	return a, want, b
}

func TestCGConverges(t *testing.T) {
	a, want, b := randomSystem(16, 16, 1)
	x := make([]float64, len(b))
	res, err := PCG(a, x, b, nil, Options{Tol: 1e-10, MaxIter: 2000, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: rel=%v after %d iters", res.Residual, res.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	// Residual history should be recorded and end small.
	if len(res.History) == 0 || res.History[len(res.History)-1] > 1e-10 {
		t.Error("history missing or final residual too large")
	}
}

func TestJacobiPCGFasterThanCG(t *testing.T) {
	// Scale rows/cols to make the diagonal wildly nonuniform, where
	// Jacobi preconditioning visibly helps.
	a := laplacian2D(16, 16)
	n := a.Rows()
	s := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range s {
		s[i] = math.Exp(3 * rng.Float64())
	}
	tr := sparse.NewTriplet(n, n, a.NNZ())
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			tr.Add(i, a.ColInd[p], s[i]*a.Val[p]*s[a.ColInd[p]])
		}
	}
	scaled := tr.ToCSR()
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	scaled.MulVec(b, want)

	x1 := make([]float64, n)
	plain, err := PCG(scaled, x1, b, nil, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	jac, err := PCG(scaled, x2, b, NewJacobi(scaled), Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !jac.Converged {
		t.Fatal("solvers did not converge")
	}
	if jac.Iterations >= plain.Iterations {
		t.Errorf("Jacobi-PCG (%d iters) not faster than CG (%d iters)",
			jac.Iterations, plain.Iterations)
	}
}

func TestAMGPCGFastest(t *testing.T) {
	a, _, b := randomSystem(32, 32, 3)
	n := len(b)
	h, err := amg.Build(a, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	resAMG, err := PCG(a, x, b, h, Options{Tol: 1e-10, MaxIter: 200, Flexible: true})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	resCG, err := PCG(a, x2, b, nil, Options{Tol: 1e-10, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !resAMG.Converged {
		t.Fatalf("AMG-PCG did not converge (rel %v)", resAMG.Residual)
	}
	if resAMG.Iterations >= resCG.Iterations {
		t.Errorf("AMG-PCG (%d) should beat CG (%d)", resAMG.Iterations, resCG.Iterations)
	}
	if resAMG.Iterations > 30 {
		t.Errorf("AMG-PCG took %d iterations; expected mesh-independent fast convergence", resAMG.Iterations)
	}
}

func TestRoughSolveStopsAtBudget(t *testing.T) {
	a, _, b := randomSystem(24, 24, 4)
	h, err := amg.Build(a, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5} {
		x := make([]float64, len(b))
		res, err := PCG(a, x, b, h, RoughOptions(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != k {
			t.Errorf("budget %d: ran %d iterations", k, res.Iterations)
		}
	}
}

func TestResidualMonotoneWithIterations(t *testing.T) {
	// Property: more rough iterations never yield a (much) worse
	// residual — the core premise of the fusion trade-off (Fig 7).
	a, _, b := randomSystem(24, 24, 5)
	h, err := amg.Build(a, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for k := 1; k <= 10; k++ {
		x := make([]float64, len(b))
		res, err := PCG(a, x, b, h, RoughOptions(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Residual > prev*1.01 {
			t.Errorf("residual increased with budget %d: %v -> %v", k, prev, res.Residual)
		}
		prev = res.Residual
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a := laplacian2D(8, 8)
	x := make([]float64, a.Rows())
	for i := range x {
		x[i] = 9
	}
	res, err := PCG(a, x, make([]float64, a.Rows()), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS must give zero solution")
		}
	}
}

func TestPCGWarmStart(t *testing.T) {
	a, want, b := randomSystem(16, 16, 6)
	// Starting at the exact solution should converge in zero iterations.
	x := append([]float64(nil), want...)
	res, err := PCG(a, x, b, nil, Options{Tol: 1e-8, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || !res.Converged {
		t.Errorf("warm start: %d iterations, converged=%v", res.Iterations, res.Converged)
	}
}

func TestPCGDimensionMismatch(t *testing.T) {
	a := laplacian2D(4, 4)
	if _, err := PCG(a, make([]float64, 3), make([]float64, 16), nil, DefaultOptions()); err == nil {
		t.Error("expected dimension error")
	}
}

// TestPCGIndefiniteDetected: negative curvature ends the solve with
// ErrIndefinite, and the failed solve still reports the residual it
// had reached — the last entry of its history, here the zero guess's 1
// — not a zero that reads as an exact answer in the solve record.
func TestPCGIndefiniteDetected(t *testing.T) {
	tr := sparse.NewTriplet(3, 3, 3)
	tr.Add(0, 0, 2)
	tr.Add(1, 1, -1)
	tr.Add(2, 2, 3)
	a := tr.ToCSR()
	x := make([]float64, 3)
	b := []float64{0, 1, 0} // immediately probes the negative direction
	res, err := PCG(a, x, b, nil, Options{Tol: 1e-12, MaxIter: 10, Record: true})
	if err != ErrIndefinite {
		t.Errorf("err = %v, want ErrIndefinite", err)
	}
	if len(res.History) == 0 || res.Residual != 1 || res.Residual != res.History[len(res.History)-1] { //irfusion:exact the zero guess's relative residual is exactly ‖b‖/‖b‖
		t.Errorf("failed solve reports residual %g with history %v, want both to end at 1", res.Residual, res.History)
	}
}

func TestRelResidual(t *testing.T) {
	a := laplacian2D(4, 4)
	x := make([]float64, 16)
	b := make([]float64, 16)
	b[0] = 2
	if r := RelResidual(a, x, b); math.Abs(r-1) > 1e-14 {
		t.Errorf("zero guess residual = %v, want 1", r)
	}
}

func TestFlexibleMatchesStandardForLinearPreconditioner(t *testing.T) {
	// With a fixed (linear) preconditioner, flexible and standard PCG
	// should follow nearly identical trajectories.
	err := quick.Check(func(seed int64) bool {
		a, _, b := randomSystem(8, 8, seed)
		m := NewJacobi(a)
		x1 := make([]float64, len(b))
		x2 := make([]float64, len(b))
		r1, err1 := PCG(a, x1, b, m, Options{Tol: 1e-9, MaxIter: 500, Flexible: false})
		r2, err2 := PCG(a, x2, b, m, Options{Tol: 1e-9, MaxIter: 500, Flexible: true})
		if err1 != nil || err2 != nil || !r1.Converged || !r2.Converged {
			return false
		}
		// Same solutions and iteration counts within slack.
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-6*(1+math.Abs(x1[i])) {
				return false
			}
		}
		diff := r1.Iterations - r2.Iterations
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Error(err)
	}
}

func TestSSORPreconditionerAcceleratesCG(t *testing.T) {
	a, _, b := randomSystem(16, 16, 8)
	x1 := make([]float64, len(b))
	plain, err := PCG(a, x1, b, nil, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, len(b))
	ss, err := PCG(a, x2, b, NewSSOR(a, 2), Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !ss.Converged {
		t.Fatal("solvers did not converge")
	}
	if ss.Iterations >= plain.Iterations {
		t.Errorf("SSOR-PCG (%d) should beat plain CG (%d)", ss.Iterations, plain.Iterations)
	}
	// Sweep clamp: 0 sweeps coerces to 1 and still works.
	p := NewSSOR(a, 0)
	if p.Sweeps != 1 {
		t.Errorf("Sweeps = %d, want clamped 1", p.Sweeps)
	}
	z := make([]float64, len(b))
	p.Apply(z, b)
	nonzero := false
	for _, v := range z {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("SSOR Apply produced a zero vector")
	}
}
