package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseCholeskySolves(t *testing.T) {
	// 3x3 SPD matrix with known solution.
	a := []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	}
	c, err := NewDenseCholesky(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3}
	b := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b[i] += a[i*3+j] * want[j]
		}
	}
	x := make([]float64, 3)
	c.Solve(x, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestDenseCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{
		1, 2,
		2, 1, // eigenvalues 3 and -1
	}
	if _, err := NewDenseCholesky(a, 2); err != errNotPositiveDefinite {
		t.Errorf("err = %v, want errNotPositiveDefinite", err)
	}
}

func TestSparseCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		a := randomSPD(n, rng)
		sc, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: sparse Cholesky failed: %v", trial, err)
		}
		dc, err := NewDenseCholesky(a.Dense(), n)
		if err != nil {
			t.Fatalf("trial %d: dense Cholesky failed: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs := make([]float64, n)
		xd := make([]float64, n)
		sc.Solve(xs, b)
		dc.Solve(xd, b)
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-9*(1+math.Abs(xd[i])) {
				t.Fatalf("trial %d: sparse %v vs dense %v at %d", trial, xs[i], xd[i], i)
			}
		}
	}
}

func TestSparseCholeskyResidualProperty(t *testing.T) {
	// Property: for any SPD system, the direct solve residual is tiny.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randomSPD(n, rng)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		c.Solve(x, b)
		r := make([]float64, n)
		a.MulVec(r, x)
		for i := range r {
			r[i] -= b[i]
		}
		return Norm2(r) <= 1e-8*(1+Norm2(b))
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestSparseCholeskyLaplacian(t *testing.T) {
	a := laplacian2D(16, 16)
	n := a.Rows()
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != n {
		t.Fatalf("N = %d, want %d", c.N(), n)
	}
	if c.NNZ() < a.NNZ()/2 {
		t.Errorf("suspiciously small factor: nnz(L) = %d", c.NNZ())
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i) * 0.1)
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	c.Solve(x, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSparseCholeskySolveInPlace(t *testing.T) {
	a := laplacian2D(5, 5)
	n := a.Rows()
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) - 1
	}
	x1 := make([]float64, n)
	c.Solve(x1, b)
	// Aliased solve.
	x2 := append([]float64(nil), b...)
	c.Solve(x2, x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("aliased solve differs at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestSparseCholeskyRejectsIndefinite(t *testing.T) {
	tr := NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 2)
	tr.Add(1, 0, 2)
	tr.Add(1, 1, 1)
	if _, err := NewCholesky(tr.ToCSR()); err != errNotPositiveDefinite {
		t.Errorf("err = %v, want errNotPositiveDefinite", err)
	}
}

func TestSparseCholeskyRejectsRectangular(t *testing.T) {
	tr := NewTriplet(2, 3, 1)
	tr.Add(0, 0, 1)
	if _, err := NewCholesky(tr.ToCSR()); err == nil {
		t.Error("expected error for rectangular matrix")
	}
}
