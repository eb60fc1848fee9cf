package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// laplacian2D builds the 5-point Laplacian on an nx×ny grid with
// Dirichlet boundary folded into the diagonal — the canonical SPD
// M-matrix that mimics a power-grid conductance matrix.
func laplacian2D(nx, ny int) *CSR {
	n := nx * ny
	t := NewTriplet(n, n, 5*n)
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

// randomSPD builds a random diagonally dominant symmetric matrix.
func randomSPD(n int, rng *rand.Rand) *CSR {
	t := NewTriplet(n, n, n*4)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -rng.Float64()
			t.Add(i, j, v)
			t.Add(j, i, v)
			diag[i] -= v
			diag[j] -= v
		}
	}
	for i := 0; i < n; i++ {
		t.Add(i, i, diag[i]+1+rng.Float64())
	}
	return t.ToCSR()
}

func TestTripletDuplicatesSummed(t *testing.T) {
	tr := NewTriplet(2, 2, 4)
	tr.Add(0, 0, 1.5)
	tr.Add(0, 0, 2.5)
	tr.Add(1, 0, -1)
	tr.Add(0, 1, 3)
	m := tr.ToCSR()
	if got := m.At(0, 0); got != 4 {
		t.Errorf("At(0,0) = %v, want 4", got)
	}
	if got := m.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %v, want -1", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestTripletCancellationDropped(t *testing.T) {
	tr := NewTriplet(1, 2, 2)
	tr.Add(0, 1, 5)
	tr.Add(0, 1, -5)
	m := tr.ToCSR()
	if m.NNZ() != 0 {
		t.Errorf("cancelled entry kept: NNZ = %d, want 0", m.NNZ())
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Add")
		}
	}()
	tr := NewTriplet(2, 2, 1)
	tr.Add(2, 0, 1)
}

func TestCSRSortedColumns(t *testing.T) {
	tr := NewTriplet(1, 5, 3)
	tr.Add(0, 4, 1)
	tr.Add(0, 0, 2)
	tr.Add(0, 2, 3)
	m := tr.ToCSR()
	for p := 1; p < m.NNZ(); p++ {
		if m.ColInd[p-1] >= m.ColInd[p] {
			t.Fatalf("columns not strictly increasing: %v", m.ColInd)
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		a := randomSPD(n, rng)
		d := a.Dense()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		a.MulVec(y, x)
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += d[i*n+j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: y[%d] = %v, want %v", trial, i, y[i], want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		tr := NewTriplet(rows, cols, 30)
		for k := 0; k < 30; k++ {
			tr.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		a := tr.ToCSR()
		tt := a.transpose().transpose()
		if tt.RowsN != a.RowsN || tt.ColsN != a.ColsN || tt.NNZ() != a.NNZ() {
			return false
		}
		for i := 0; i < a.RowsN; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				if tt.ColInd[p] != a.ColInd[p] || tt.Val[p] != a.Val[p] {
					return false
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTransposeEntries(t *testing.T) {
	tr := NewTriplet(2, 3, 3)
	tr.Add(0, 2, 5)
	tr.Add(1, 0, -2)
	tr.Add(1, 2, 1)
	at := tr.ToCSR().transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d, want 3x2", at.Rows(), at.Cols())
	}
	if at.At(2, 0) != 5 || at.At(0, 1) != -2 || at.At(2, 1) != 1 {
		t.Errorf("transpose entries wrong: %v", at)
	}
}

func TestIsSymmetric(t *testing.T) {
	a := laplacian2D(4, 5)
	if !a.IsSymmetric(1e-14) {
		t.Error("Laplacian should be symmetric")
	}
	tr := NewTriplet(2, 2, 2)
	tr.Add(0, 1, 1)
	if tr.ToCSR().IsSymmetric(1e-14) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestDiag(t *testing.T) {
	a := laplacian2D(3, 3)
	for i, d := range a.Diag() {
		if d != 4 {
			t.Fatalf("Diag[%d] = %v, want 4", i, d)
		}
	}
}

func TestAtMissingEntry(t *testing.T) {
	a := laplacian2D(3, 3)
	if a.At(0, 8) != 0 {
		t.Error("missing entry should read as 0")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := laplacian2D(2, 2)
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestScale(t *testing.T) {
	a := laplacian2D(2, 2)
	a.Scale(0.5)
	if a.At(0, 0) != 2 {
		t.Errorf("Scale: got %v, want 2", a.At(0, 0))
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v, want 32", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Error("Norm2(3,4) != 5")
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Errorf("Axpy result %v", y)
	}
	Zero(y)
	if y[0] != 0 || y[2] != 0 {
		t.Error("Zero failed")
	}
}

func TestDotPropertyBilinear(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		scaled := make([]float64, n)
		for i := range scaled {
			scaled[i] = alpha * a[i]
		}
		lhs := Dot(scaled, b)
		rhs := alpha * Dot(a, b)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(rhs))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestGaussSeidelConvergesOnSmallSystem(t *testing.T) {
	a := laplacian2D(6, 6)
	n := a.Rows()
	want := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	SymmetricGaussSeidel(a, x, b, 400)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("GS x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestGaussSeidelMonotoneEnergyNorm(t *testing.T) {
	// For SPD A, Gauss-Seidel is a descent method in the A-norm of
	// the error. Verify monotone decrease across sweeps.
	a := laplacian2D(7, 5)
	n := a.Rows()
	rng := rand.New(rand.NewSource(5))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	prev := math.Inf(1)
	tmp := make([]float64, n)
	for sweep := 0; sweep < 10; sweep++ {
		GaussSeidelForward(a, x, b)
		e := make([]float64, n)
		for i := range e {
			e[i] = x[i] - want[i]
		}
		a.MulVec(tmp, e)
		energy := Dot(e, tmp)
		if energy > prev+1e-12 {
			t.Fatalf("energy norm increased: %v -> %v", prev, energy)
		}
		prev = energy
	}
}
