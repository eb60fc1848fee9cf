package amg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
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
	// Sizes must strictly decrease and end at/below maxCoarse.
	for i := 1; i < h.NumLevels(); i++ {
		if h.Levels[i].A.Rows() >= h.Levels[i-1].A.Rows() {
			t.Fatalf("level %d did not coarsen: %d -> %d", i,
				h.Levels[i-1].A.Rows(), h.Levels[i].A.Rows())
		}
	}
	last := h.Levels[h.NumLevels()-1].A.Rows()
	if last > maxCoarse {
		t.Errorf("coarsest level size %d exceeds maxCoarse", last)
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
	// Property: every fine node belongs to exactly one aggregate, every
	// aggregate has a member, and the coarse operator has one row each.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 4+rng.Intn(12), 4+rng.Intn(12)
		a := laplacian2D(nx, ny)
		agg, ac := coarsen(a, true)
		if agg == nil {
			return false
		}
		if len(agg) != a.Rows() || ac.Rows() >= a.Rows() || ac.Cols() != ac.Rows() {
			return false
		}
		covered := make([]bool, ac.Rows())
		for _, g := range agg {
			if g < 0 || g >= len(covered) {
				return false
			}
			covered[g] = true
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
	_, ad := coarsen(a, true)
	_, as := coarsen(a, false)
	if ad.Rows() >= as.Rows() {
		t.Errorf("double pairwise (%d aggregates) should coarsen harder than single (%d)",
			ad.Rows(), as.Rows())
	}
}

// stationarySolve iterates x += M⁻¹(b − A·x), the hierarchy as a
// stationary solver, until the relative residual drops below tol or
// maxCycles is reached. It returns the number of cycles performed and
// the final relative residual.
func stationarySolve(h *Hierarchy, x, b []float64, tol float64, maxCycles int) (int, float64) {
	a := h.Levels[0].A
	r := make([]float64, len(b))
	z := make([]float64, len(b))
	bn := sparse.Norm2(b)
	for k := 0; ; k++ {
		a.MulVec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if rel := sparse.Norm2(r) / bn; rel < tol || k == maxCycles {
			return k, rel
		}
		h.Apply(z, r)
		sparse.Axpy(1, z, x)
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
	iters, rel := stationarySolve(h, x, b, 1e-8, maxCycles)
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

// A zero right-hand side preconditions to exactly zero under both
// cycle types, whatever the output vector held: the K arm's FCG step
// must take its rho <= 0 exit, not divide by it.
func TestSolveZeroRHS(t *testing.T) {
	a := laplacian2D(24, 24)
	for _, cyc := range []Cycle{VCycle, KCycle} {
		opts := DefaultOptions()
		opts.Cycle = cyc
		h, err := Build(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumLevels() < 3 {
			t.Fatalf("%d levels: the K arm needs a level-1 solve", h.NumLevels())
		}
		z := make([]float64, a.Rows())
		for i := range z {
			z[i] = 5
		}
		h.Apply(z, make([]float64, a.Rows()))
		for i, v := range z {
			if v != 0 {
				t.Fatalf("%v: z[%d] = %v after applying to a zero vector", cyc, i, v)
			}
		}
	}
}

func TestBuildSmallMatrixSingleLevel(t *testing.T) {
	a := laplacian2D(4, 4) // 16 nodes < maxCoarse
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
	h.Apply(x, b)
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

// randomMMatrix returns a random symmetric strictly diagonally dominant
// M-matrix (positive diagonal, non-positive off-diagonal) of order n,
// whose row `lone` holds its diagonal and nothing else.
func randomMMatrix(n, lone int, rng *rand.Rand) *sparse.CSR {
	t := sparse.NewTriplet(n, n, 8*n)
	for i := 0; i < n; i++ {
		t.Add(i, i, 0.1+rng.Float64())
	}
	for e := 0; e < 3*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || i == lone || j == lone {
			continue
		}
		g := 0.01 + rng.Float64()
		t.Add(i, i, g)
		t.Add(j, j, g)
		t.Add(i, j, -g)
		t.Add(j, i, -g)
	}
	return t.ToCSR()
}

// checkSweepResidual holds the fused kernel to what it replaces: a
// forward Gauss-Seidel sweep from the zero guess, then r = b − A·x.
func checkSweepResidual(t *testing.T, name string, a *sparse.CSR, rng *rand.Rand) {
	t.Helper()
	dpos, err := diagPositions(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := a.Rows()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	wantX, wantR := make([]float64, n), make([]float64, n)
	sparse.GaussSeidelForward(a, wantX, b)
	a.MulVec(wantR, wantX)
	for i := range wantR {
		wantR[i] = b[i] - wantR[i]
	}
	x, r := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], r[i] = 123, -456 // output only: garbage in must not matter
	}
	sweepResidual(a, dpos, x, r, b)
	xScale, rScale := sparse.Norm2(wantX), sparse.Norm2(b)
	for i := range x {
		if math.Abs(x[i]-wantX[i]) > 1e-13*xScale {
			t.Fatalf("%s: x[%d] = %v, sweep from zero gives %v", name, i, x[i], wantX[i])
		}
		if math.Abs(r[i]-wantR[i]) > 1e-13*rScale {
			t.Fatalf("%s: r[%d] = %v, b − A·x gives %v", name, i, r[i], wantR[i])
		}
	}
	// The backward sweep is the general one, walked in two halves.
	sparse.GaussSeidelBackward(a, wantX, b)
	sweepBackward(a, dpos, x, b)
	for i := range x {
		if math.Abs(x[i]-wantX[i]) > 1e-13*xScale {
			t.Fatalf("%s: backward sweep x[%d] = %v, want %v", name, i, x[i], wantX[i])
		}
	}
}

func TestSweepResidualMatchesSweepThenResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(60)
		checkSweepResidual(t, "random M-matrix", randomMMatrix(n, rng.Intn(n), rng), rng)
	}
	checkSweepResidual(t, "laplacian 1x1", laplacian2D(1, 1), rng)
	checkSweepResidual(t, "laplacian 7x5", laplacian2D(7, 5), rng)
	checkSweepResidual(t, "laplacian 32x32", laplacian2D(32, 32), rng)
	// Every level the cycle smooths, coarse operators included.
	h, err := Build(laplacian2D(40, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range h.Levels[1:] {
		checkSweepResidual(t, "coarse level", lvl.A, rng)
	}
}

func TestBuildRejectsMissingDiagonal(t *testing.T) {
	tr := sparse.NewTriplet(3, 3, 4)
	tr.Add(0, 0, 2)
	tr.Add(1, 2, -1)
	tr.Add(2, 1, -1)
	tr.Add(2, 2, 2)
	if _, err := Build(tr.ToCSR(), DefaultOptions()); !errors.Is(err, errSetup) {
		t.Errorf("Build on a row without a diagonal: %v, want errSetup", err)
	}
}

// densePtAP is the oracle galerkin is held to: PᵀAP by its definition,
// on dense storage.
func densePtAP(a *sparse.CSR, agg []int, nAgg int) []float64 {
	n := a.Rows()
	ad := a.Dense()
	out := make([]float64, nAgg*nAgg)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[agg[i]*nAgg+agg[j]] += ad[i*n+j]
		}
	}
	return out
}

func checkGalerkin(t *testing.T, name string, a *sparse.CSR, agg []int, nAgg int) *sparse.CSR {
	t.Helper()
	ac := galerkin(a, agg, nAgg)
	if ac.Rows() != nAgg || ac.Cols() != nAgg || len(ac.RowPtr) != nAgg+1 {
		t.Fatalf("%s: coarse shape %dx%d, want %d", name, ac.Rows(), ac.Cols(), nAgg)
	}
	want := densePtAP(a, agg, nAgg)
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for g := 0; g < nAgg; g++ {
		for p := ac.RowPtr[g]; p < ac.RowPtr[g+1]; p++ {
			if p > ac.RowPtr[g] && ac.ColInd[p] <= ac.ColInd[p-1] {
				t.Fatalf("%s: row %d columns not strictly increasing", name, g)
			}
			if ac.Val[p] == 0 {
				t.Fatalf("%s: stored zero at (%d,%d)", name, g, ac.ColInd[p])
			}
		}
		for c := 0; c < nAgg; c++ {
			if d := math.Abs(ac.At(g, c) - want[g*nAgg+c]); d > 1e-13*scale {
				t.Fatalf("%s: A_c[%d,%d] = %v, dense PᵀAP gives %v", name, g, c, ac.At(g, c), want[g*nAgg+c])
			}
		}
	}
	return ac
}

func TestGalerkinMatchesDensePtAP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(50)
		a := randomMMatrix(n, rng.Intn(n), rng)
		// A random map onto nAgg aggregates, none of them empty.
		nAgg := 1 + rng.Intn(n)
		agg := make([]int, n)
		for i, p := range rng.Perm(n) {
			if i < nAgg {
				agg[p] = i
			} else {
				agg[p] = rng.Intn(nAgg)
			}
		}
		if ac := checkGalerkin(t, "random map", a, agg, nAgg); !ac.IsSymmetric(1e-12) {
			t.Error("random map: Galerkin operator lost symmetry")
		}
	}
	// The maps Build uses: one and two pairwise passes on a grid.
	a := laplacian2D(12, 9)
	for _, aggressive := range []bool{false, true} {
		agg, ac := coarsen(a, aggressive)
		want := checkGalerkin(t, "pairwise", a, agg, ac.Rows())
		if !slices.Equal(ac.RowPtr, want.RowPtr) || !slices.Equal(ac.ColInd, want.ColInd) {
			t.Errorf("aggressive=%v: composed coarsening has a different pattern than PᵀAP of the composed map", aggressive)
		}
		for p := range want.Val {
			if math.Abs(ac.Val[p]-want.Val[p]) > 1e-13*4 {
				t.Errorf("aggressive=%v: entry %d is %v, PᵀAP of the composed map gives %v", aggressive, p, ac.Val[p], want.Val[p])
			}
		}
		if !ac.IsSymmetric(1e-12) {
			t.Errorf("aggressive=%v: Galerkin operator lost symmetry", aggressive)
		}
	}
	// Entries that cancel exactly are dropped, as ToCSR drops them.
	tr := sparse.NewTriplet(4, 4, 8)
	for i := 0; i < 4; i++ {
		tr.Add(i, i, 2)
	}
	tr.Add(0, 2, 1)
	tr.Add(1, 3, -1)
	tr.Add(2, 0, 1)
	tr.Add(3, 1, -1)
	ac := checkGalerkin(t, "cancellation", tr.ToCSR(), []int{0, 0, 1, 1}, 2)
	if ac.NNZ() != 2 {
		t.Errorf("cancellation: %d stored entries, want the two diagonals", ac.NNZ())
	}
}

// TestVCycleApplySymmetric: PCG needs a symmetric preconditioner, and
// the zero-guess cycle (lower-triangle sweep down, full sweep up) must
// still be one: ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩.
func TestVCycleApplySymmetric(t *testing.T) {
	a := laplacian2D(40, 40)
	opts := DefaultOptions()
	opts.Cycle = VCycle
	h, err := Build(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 3 {
		t.Fatalf("%d levels, want a cycle with a smoothed coarse level", h.NumLevels())
	}
	n := a.Rows()
	rng := rand.New(rand.NewSource(29))
	u, v := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i], v[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	mu, mv := make([]float64, n), make([]float64, n)
	h.Apply(mu, u)
	h.Apply(mv, v)
	l, r := sparse.Dot(mu, v), sparse.Dot(u, mv)
	if math.Abs(l-r) > 1e-12*sparse.Norm2(mu)*sparse.Norm2(v) {
		t.Errorf("⟨M⁻¹u, v⟩ = %v but ⟨u, M⁻¹v⟩ = %v", l, r)
	}
}

// TestCloneSharesSetupConcurrently: a clone shares every setup product
// — diagonal positions and aggregation maps included — owns its
// workspace, and two clones preconditioning at once (run under -race)
// give the bits the original gives.
func TestCloneSharesSetupConcurrently(t *testing.T) {
	a := laplacian2D(40, 40)
	h, err := Build(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows()
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%11) - 5
	}
	want := make([]float64, n)
	h.Apply(want, r)

	clones := []*Hierarchy{h.Clone(), h.Clone()}
	for _, c := range clones {
		for i, lvl := range c.Levels {
			orig := h.Levels[i]
			if lvl.A != orig.A || &lvl.dpos[0] != &orig.dpos[0] {
				t.Fatalf("level %d: clone copied the operator or its diagonal positions", i)
			}
			if i+1 < len(c.Levels) && (&lvl.agg[0] != &orig.agg[0] || &lvl.r[0] == &orig.r[0] || &lvl.xc[0] == &orig.xc[0]) {
				t.Fatalf("level %d: clone must share the aggregation map and own its workspace", i)
			}
		}
	}
	got := [2][]float64{make([]float64, n), make([]float64, n)}
	var wg sync.WaitGroup
	for k, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c.Apply(got[k], r)
			}
		}()
	}
	wg.Wait()
	for k := range got {
		for i := range want {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[i]) {
				t.Fatalf("clone %d: z[%d] = %v, the original gives %v", k, i, got[k][i], want[i])
			}
		}
	}
}
