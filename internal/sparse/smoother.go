package sparse

// Smoothers: the classic stationary iterations used inside multigrid
// cycles. Each smoother performs in-place sweeps improving x for the
// system A·x = b; the Gauss-Seidel sweeps are sequential by
// construction.

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
