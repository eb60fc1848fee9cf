package sparse

import (
	"math"
	"math/rand"
	"testing"
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
// that sums each row in column order, so its bits are the plain
// row-by-row loop's. This guards a fork that would reorder the sums.
func TestMulVecParallelMatchesSerialBitwise(t *testing.T) {
	a := laplacian2D(40, 37)
	n := a.Rows()
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	a.MulVec(y, x)
	for i := range y {
		want := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			want += a.Val[p] * x[a.ColInd[p]]
		}
		if math.Float64bits(y[i]) != math.Float64bits(want) {
			t.Fatalf("MulVec y[%d] = %x, in-order row sum %x", i, y[i], want)
		}
	}
}
