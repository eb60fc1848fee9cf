package sparse

// Smoothers: the classic stationary iterations used inside multigrid
// cycles. Each smoother performs in-place sweeps improving x for the
// system A·x = b.
//
// Jacobi has no sequential dependency between rows and runs on the
// shared worker pool; the Gauss-Seidel sweeps are sequential by
// construction and stay single-threaded.

import "irfusion/internal/parallel"

// JacobiSweepsDiag performs k weighted-Jacobi sweeps with damping
// omega (omega = 2/3 is the usual choice for Laplacian-like
// operators). The caller supplies the extracted diagonal and a scratch
// vector of length a.Rows(), so repeated sweeps allocate nothing. The
// residual product and the update are both row-parallel and bitwise
// identical at every worker count.
//
//irfusion:hotpath
func JacobiSweepsDiag(a *CSR, x, b, diag []float64, omega float64, k int, scratch []float64) {
	n := a.Rows()
	pool := parallel.Default()
	for s := 0; s < k; s++ {
		a.MulVec(scratch, x)
		if pool.SerialFor(n) {
			cForSerial.Inc()
			jacobiUpdateRange(x, b, diag, scratch, omega, 0, n)
			continue
		}
		pool.For(n, func(lo, hi int) {
			jacobiUpdateRange(x, b, diag, scratch, omega, lo, hi)
		})
	}
}

// jacobiUpdateRange applies the damped Jacobi update on rows [lo, hi).
//
//irfusion:hotpath
func jacobiUpdateRange(x, b, diag, scratch []float64, omega float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if diag[i] != 0 { //irfusion:exact a stored zero diagonal marks a row the sweep must skip; a tiny nonzero must still divide
			x[i] += omega * (b[i] - scratch[i]) / diag[i]
		}
	}
}

// GaussSeidelForward performs one forward Gauss-Seidel sweep.
//
//irfusion:hotpath
func GaussSeidelForward(a *CSR, x, b []float64) {
	for i := 0; i < a.RowsN; i++ {
		sum := b[i]
		diag := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColInd[p]
			if j == i {
				diag = a.Val[p]
			} else {
				sum -= a.Val[p] * x[j]
			}
		}
		if diag != 0 { //irfusion:exact an absent diagonal reads as exactly zero and the row is skipped; a tiny pivot must still divide
			x[i] = sum / diag
		}
	}
}

// GaussSeidelBackward performs one backward Gauss-Seidel sweep.
//
//irfusion:hotpath
func GaussSeidelBackward(a *CSR, x, b []float64) {
	for i := a.RowsN - 1; i >= 0; i-- {
		sum := b[i]
		diag := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColInd[p]
			if j == i {
				diag = a.Val[p]
			} else {
				sum -= a.Val[p] * x[j]
			}
		}
		if diag != 0 { //irfusion:exact an absent diagonal reads as exactly zero and the row is skipped; a tiny pivot must still divide
			x[i] = sum / diag
		}
	}
}

// SymmetricGaussSeidel performs k symmetric (forward then backward)
// Gauss-Seidel sweeps. Symmetry of the sweep keeps the induced
// preconditioner symmetric, which PCG requires.
//
//irfusion:hotpath
func SymmetricGaussSeidel(a *CSR, x, b []float64, k int) {
	for s := 0; s < k; s++ {
		GaussSeidelForward(a, x, b)
		GaussSeidelBackward(a, x, b)
	}
}
