package amg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

func TestBuildHierarchyShape(t *testing.T) {
	a := laplacian2D(32, 32)
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Fatalf("expected multilevel hierarchy, got %d levels", h.NumLevels())
	}
	// Sizes must strictly decrease and end at/below MaxCoarse.
	for i := 1; i < h.NumLevels(); i++ {
		if h.Levels[i].A.Rows() >= h.Levels[i-1].A.Rows() {
			t.Fatalf("level %d did not coarsen: %d -> %d", i,
				h.Levels[i-1].A.Rows(), h.Levels[i].A.Rows())
		}
	}
	last := h.Levels[h.NumLevels()-1].A.Rows()
	if last > DefaultOptions().MaxCoarse {
		t.Errorf("coarsest level size %d exceeds MaxCoarse", last)
	}
	if oc := h.OperatorComplexity(); oc < 1 || oc > 3 {
		t.Errorf("operator complexity %v outside sane range [1,3]", oc)
	}
}

func TestCoarseOperatorsStaySymmetric(t *testing.T) {
	a := laplacian2D(24, 24)
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range h.Levels {
		if !lvl.A.IsSymmetric(1e-10) {
			t.Errorf("level %d operator not symmetric", i)
		}
	}
}

func TestAggregationPartition(t *testing.T) {
	// Property: every fine node belongs to exactly one aggregate and
	// P has a single unit entry per row.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 4+rng.Intn(12), 4+rng.Intn(12)
		a := laplacian2D(nx, ny)
		p := aggregate(a, 0.25, true)
		if p == nil {
			return false
		}
		if p.Rows() != a.Rows() || p.Cols() >= a.Rows() {
			return false
		}
		covered := make([]bool, p.Cols())
		for i := 0; i < p.Rows(); i++ {
			lo, hi := p.RowPtr[i], p.RowPtr[i+1]
			if hi-lo != 1 || p.Val[lo] != 1 {
				return false
			}
			covered[p.ColInd[lo]] = true
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestAggressiveCoarsensFaster(t *testing.T) {
	a := laplacian2D(32, 32)
	pd := aggregate(a, 0.25, true)
	ps := aggregate(a, 0.25, false)
	if pd.Cols() >= ps.Cols() {
		t.Errorf("double pairwise (%d aggregates) should coarsen harder than single (%d)",
			pd.Cols(), ps.Cols())
	}
}

func solveWith(t *testing.T, cycle Cycle, nx, ny, maxCycles int) (int, float64) {
	t.Helper()
	a := laplacian2D(nx, ny)
	opts := DefaultOptions()
	opts.Cycle = cycle
	h, err := Build(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	rng := rand.New(rand.NewSource(11))
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	x := make([]float64, n)
	iters, rel := h.Solve(x, b, 1e-8, maxCycles)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
			t.Fatalf("%v-cycle solution wrong at %d: %v vs %v", cycle, i, x[i], want[i])
		}
	}
	return iters, rel
}

func TestVCycleSolves(t *testing.T) {
	iters, rel := solveWith(t, VCycle, 24, 24, 200)
	if rel >= 1e-8 {
		t.Errorf("V-cycle did not converge: rel=%v after %d cycles", rel, iters)
	}
}

func TestKCycleSolves(t *testing.T) {
	iters, rel := solveWith(t, KCycle, 24, 24, 200)
	if rel >= 1e-8 {
		t.Errorf("K-cycle did not converge: rel=%v after %d cycles", rel, iters)
	}
}

func TestKCycleAtLeastAsFastAsV(t *testing.T) {
	vIters, _ := solveWith(t, VCycle, 32, 32, 500)
	kIters, _ := solveWith(t, KCycle, 32, 32, 500)
	if kIters > vIters {
		t.Errorf("K-cycle (%d cycles) slower than V-cycle (%d cycles)", kIters, vIters)
	}
}

func TestCycleCountIndependentOfSize(t *testing.T) {
	// The point of multigrid: cycle count should grow only mildly
	// with problem size. Allow generous slack but catch O(n) blowup.
	small, _ := solveWith(t, KCycle, 16, 16, 500)
	large, _ := solveWith(t, KCycle, 48, 48, 500)
	if large > 3*small+10 {
		t.Errorf("cycle count scaled badly: %d (16x16) -> %d (48x48)", small, large)
	}
}

func TestApplyZeroInitialGuess(t *testing.T) {
	a := laplacian2D(16, 16)
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	r := make([]float64, n)
	for i := range r {
		r[i] = 1
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = 123 // garbage that Apply must ignore
	}
	h.Apply(z, r)
	// z should be a decent approximation to A⁻¹r: residual reduced.
	tmp := make([]float64, n)
	a.MulVec(tmp, z)
	for i := range tmp {
		tmp[i] = r[i] - tmp[i]
	}
	if sparse.Norm2(tmp) >= sparse.Norm2(r) {
		t.Error("one cycle failed to reduce the residual")
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := laplacian2D(8, 8)
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Rows())
	for i := range x {
		x[i] = 5
	}
	iters, rel := h.Solve(x, make([]float64, a.Rows()), 1e-10, 10)
	if iters != 0 || rel != 0 {
		t.Errorf("zero-rhs solve: iters=%d rel=%v", iters, rel)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero-rhs solution should be zero")
		}
	}
}

func TestBuildSmallMatrixSingleLevel(t *testing.T) {
	a := laplacian2D(4, 4) // 16 nodes < MaxCoarse
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Errorf("expected direct-solve-only hierarchy, got %d levels", h.NumLevels())
	}
	b := make([]float64, 16)
	b[5] = 1
	x := make([]float64, 16)
	h.Cycle(x, b)
	if r := make([]float64, 16); true {
		a.MulVec(r, x)
		for i := range r {
			r[i] -= b[i]
		}
		if sparse.Norm2(r) > 1e-10 {
			t.Errorf("single-level cycle should be a direct solve, residual %v", sparse.Norm2(r))
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(&sparse.CSR{RowPtr: []int{0}}, DefaultOptions()); err == nil {
		t.Error("expected error on empty matrix")
	}
	tr := sparse.NewTriplet(2, 3, 1)
	tr.Add(0, 0, 1)
	if _, err := Build(tr.ToCSR(), DefaultOptions()); err == nil {
		t.Error("expected error on rectangular matrix")
	}
}

func TestCycleString(t *testing.T) {
	if VCycle.String() != "V" || KCycle.String() != "K" {
		t.Error("Cycle String() values wrong")
	}
	if Cycle(9).String() != "Cycle(9)" {
		t.Error("unknown cycle formatting wrong")
	}
}
