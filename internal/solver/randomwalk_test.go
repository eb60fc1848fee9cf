package solver

import (
	"math"
	"math/rand"
	"testing"

	"irfusion/internal/sparse"
)

// padChain builds the drop-system of pad --1Ω-- a --1Ω-- b with a
// 1 A load at b: G = [[2,-1],[-1,1]], I = [0,1]; solution d = [1,2].
func padChain() (*sparse.CSR, []float64, []float64) {
	t := sparse.NewTriplet(2, 2, 4)
	t.Add(0, 0, 2)
	t.Add(0, 1, -1)
	t.Add(1, 0, -1)
	t.Add(1, 1, 1)
	return t.ToCSR(), []float64{0, 1}, []float64{1, 2}
}

func TestRandomWalkChainAnalytic(t *testing.T) {
	a, b, want := padChain()
	rw, err := NewRandomWalk(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i, w := range want {
		got := rw.Node(i, 20000, rng)
		if math.Abs(got-w) > 0.05*w {
			t.Errorf("node %d: walk estimate %v, want %v", i, got, w)
		}
	}
}

func TestRandomWalkMatchesPCG(t *testing.T) {
	// A grid with pad elimination: interior Laplacian rows plus
	// strictly dominant boundary rows.
	nx, ny := 6, 6
	n := nx * ny
	tr := sparse.NewTriplet(n, n, 5*n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			tr.Add(i, i, 4) // boundary rows keep full diagonal -> pad coupling
			if x > 0 {
				tr.Add(i, idx(x-1, y), -1)
			}
			if x < nx-1 {
				tr.Add(i, idx(x+1, y), -1)
			}
			if y > 0 {
				tr.Add(i, idx(x, y-1), -1)
			}
			if y < ny-1 {
				tr.Add(i, idx(x, y+1), -1)
			}
		}
	}
	a := tr.ToCSR()
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range b {
		b[i] = rng.Float64() * 0.1
	}
	exact := make([]float64, n)
	if _, err := PCG(a, exact, b, nil, Options{Tol: 1e-10, MaxIter: 1000}); err != nil {
		t.Fatal(err)
	}
	rw, err := NewRandomWalk(a, b)
	if err != nil {
		t.Fatal(err)
	}
	est := make([]float64, n)
	rw.Solve(est, 3000, rng)
	maxRef := 0.0
	for _, v := range exact {
		if v > maxRef {
			maxRef = v
		}
	}
	for i := range exact {
		if math.Abs(est[i]-exact[i]) > 0.1*maxRef {
			t.Fatalf("node %d: walk %v vs exact %v (tol %v)", i, est[i], exact[i], 0.1*maxRef)
		}
	}
}

func TestRandomWalkZeroLoadZeroDrop(t *testing.T) {
	a, _, _ := padChain()
	rw, err := NewRandomWalk(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if got := rw.Node(1, 100, rng); got != 0 {
		t.Errorf("no load should mean no drop, got %v", got)
	}
}

func TestRandomWalkRejectsBadMatrices(t *testing.T) {
	// Positive off-diagonal (not an M-matrix).
	tr := sparse.NewTriplet(2, 2, 3)
	tr.Add(0, 0, 2)
	tr.Add(0, 1, 1)
	tr.Add(1, 1, 2)
	if _, err := NewRandomWalk(tr.ToCSR(), []float64{0, 0}); err == nil {
		t.Error("expected M-matrix error")
	}
	// Singular Laplacian with zero row sums everywhere (no pads).
	tr2 := sparse.NewTriplet(2, 2, 4)
	tr2.Add(0, 0, 1)
	tr2.Add(0, 1, -1)
	tr2.Add(1, 0, -1)
	tr2.Add(1, 1, 1)
	if _, err := NewRandomWalk(tr2.ToCSR(), []float64{0, 0}); err != ErrNotWalkable {
		t.Errorf("err = %v, want ErrNotWalkable", err)
	}
	// Non-positive diagonal.
	tr3 := sparse.NewTriplet(1, 1, 1)
	tr3.Add(0, 0, -1)
	if _, err := NewRandomWalk(tr3.ToCSR(), []float64{0}); err == nil {
		t.Error("expected diagonal error")
	}
}

func TestRandomWalkVarianceShrinksWithWalks(t *testing.T) {
	a, b, want := padChain()
	rw, err := NewRandomWalk(a, b)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(walks int, seed int64) float64 {
		worst := 0.0
		for trial := int64(0); trial < 8; trial++ {
			rng := rand.New(rand.NewSource(seed + trial))
			if d := math.Abs(rw.Node(1, walks, rng) - want[1]); d > worst {
				worst = d
			}
		}
		return worst
	}
	few := spread(50, 10)
	many := spread(5000, 10)
	if many >= few {
		t.Errorf("estimate spread did not shrink: %v (50 walks) vs %v (5000 walks)", few, many)
	}
}
