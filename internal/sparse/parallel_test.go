package sparse

import (
	"math/rand"
	"testing"

	"irfusion/internal/parallel"
)

func TestMulVecAliasPanics(t *testing.T) {
	a := laplacian2D(4, 4)
	v := make([]float64, a.Rows())
	defer func() {
		if recover() == nil {
			t.Error("MulVec with aliased y and x did not panic")
		}
	}()
	a.MulVec(v, v)
}

// TestMulVecParallelMatchesSerialBitwise: MulVec is one serial loop
// that sums each row in column order, so its bits may not depend on
// the width of the process's worker pool. This guards a fork that
// would reintroduce such a dependence.
func TestMulVecParallelMatchesSerialBitwise(t *testing.T) {
	a := laplacian2D(40, 37)
	n := a.Rows()
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	var ref []float64
	for _, w := range []int{1, 2, 4, 8} {
		p := parallel.New(w)
		prev := parallel.SetDefault(p)
		y := make([]float64, n)
		a.MulVec(y, x)
		parallel.SetDefault(prev)
		p.Close()
		if ref == nil {
			ref = y
			continue
		}
		for i := range y {
			if y[i] != ref[i] {
				t.Fatalf("workers=%d: MulVec y[%d] = %x, 1 worker %x", w, i, y[i], ref[i])
			}
		}
	}
}
