package sparse

import (
	"math/rand"
	"testing"

	"irfusion/internal/parallel"
)

// withPool swaps the process default pool for the test's duration.
func withPool(t *testing.T, p *parallel.Pool) {
	t.Helper()
	prev := parallel.SetDefault(p)
	t.Cleanup(func() {
		parallel.SetDefault(prev)
		p.Close()
	})
}

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

// TestMulVecParallelMatchesSerialBitwise: each row of y is summed in
// column order by exactly one worker, so the nnz-partitioned parallel
// sweep must reproduce the serial sweep bit-for-bit.
func TestMulVecParallelMatchesSerialBitwise(t *testing.T) {
	a := laplacian2D(40, 37)
	n := a.Rows()
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	withPool(t, parallel.New(1))
	serial := make([]float64, n)
	a.MulVec(serial, x)

	for _, w := range []int{2, 4, 8} {
		p := parallel.New(w).SetMinWork(1)
		parallel.SetDefault(p)
		y := make([]float64, n)
		a.MulVec(y, x)
		for i := range y {
			if y[i] != serial[i] {
				t.Fatalf("workers=%d: MulVec y[%d] = %x, serial %x", w, i, y[i], serial[i])
			}
		}
		p.Close()
	}
}

func TestRowPartitionCoversAndBalances(t *testing.T) {
	a := laplacian2D(50, 50)
	for _, parts := range []int{1, 2, 3, 7, 16, 10_000} {
		b := a.rowPartition(parts)
		if b[0] != 0 || b[len(b)-1] != a.Rows() {
			t.Fatalf("parts=%d: boundaries %v do not cover [0,%d]", parts, b[:min(len(b), 8)], a.Rows())
		}
		if len(b)-1 > parts {
			t.Fatalf("parts=%d: got %d ranges", parts, len(b)-1)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("parts=%d: boundaries not strictly increasing at %d: %v", parts, i, b[i-1:i+1])
			}
		}
		// Each range's nnz should be within 2× of the ideal share
		// (the matrix has nearly uniform rows, so partitioning by nnz
		// must come out close).
		if parts > 1 && parts <= 16 {
			ideal := float64(a.NNZ()) / float64(parts)
			for i := 0; i+1 < len(b); i++ {
				got := float64(a.RowPtr[b[i+1]] - a.RowPtr[b[i]])
				if got > 2*ideal {
					t.Errorf("parts=%d: range %d holds %.0f nnz, ideal %.0f", parts, i, got, ideal)
				}
			}
		}
	}
}

// TestSmoothersUnderParallelPool runs the row-parallel Jacobi smoother
// with a forced-parallel pool and checks it matches the serial result
// bitwise (the update is elementwise).
func TestSmoothersUnderParallelPool(t *testing.T) {
	a := laplacian2D(30, 30)
	n := a.Rows()
	rng := rand.New(rand.NewSource(9))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	run := func(smoother func(x []float64)) []float64 {
		x := make([]float64, n)
		smoother(x)
		return x
	}
	diag := a.Diag()
	jacobi := func(x []float64) { JacobiSweepsDiag(a, x, b, diag, 2.0/3.0, 5, make([]float64, n)) }

	withPool(t, parallel.New(1))
	serialJacobi := run(jacobi)

	p := parallel.New(4).SetMinWork(1)
	parallel.SetDefault(p)
	defer p.Close()
	parJacobi := run(jacobi)

	for i := 0; i < n; i++ {
		if parJacobi[i] != serialJacobi[i] {
			t.Fatalf("Jacobi x[%d]: parallel %x, serial %x", i, parJacobi[i], serialJacobi[i])
		}
	}
}
