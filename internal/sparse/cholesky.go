package sparse

import (
	"errors"
	"math"
)

// errNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot.
var errNotPositiveDefinite = errors.New("sparse: matrix is not positive definite")

// DenseCholesky holds the lower-triangular factor of a dense SPD
// matrix. It backs the coarsest level of the AMG hierarchy, where the
// system is small enough that fill-in no longer matters.
type DenseCholesky struct {
	n int
	l []float64 // row-major lower triangle including diagonal
}

// NewDenseCholesky factors the dense row-major matrix a (n×n).
func NewDenseCholesky(a []float64, n int) (*DenseCholesky, error) {
	l := make([]float64, n*n)
	copy(l, a)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 {
			return nil, errNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / d
		}
	}
	// Zero the strict upper triangle so Dense() style dumps are clean.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	return &DenseCholesky{n: n, l: l}, nil
}

// Solve solves A·x = b in place: x is overwritten with the solution.
func (c *DenseCholesky) Solve(x, b []float64) {
	n := c.n
	if len(x) != n || len(b) != n {
		panic("sparse: DenseCholesky.Solve dimension mismatch")
	}
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
	// Backward substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= c.l[k*n+i] * x[k]
		}
		x[i] = s / c.l[i*n+i]
	}
}

// Cholesky is a sparse Cholesky factorization A = L·Lᵀ computed with
// the up-looking algorithm over the elimination tree (CSparse style,
// natural ordering). It provides exact direct solves for small and
// medium power-grid systems and serves as the golden cross-check for
// the iterative solvers.
type Cholesky struct {
	n      int
	colPtr []int // L stored by column (CSC), diagonal first in each column
	rowInd []int
	val    []float64
	parent []int
}

// etree computes the elimination tree of an SPD matrix given in CSR
// (using the upper triangle of each row, which by symmetry mirrors the
// lower triangle by column).
func etree(a *CSR) []int {
	n := a.Rows()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	for k := 0; k < n; k++ {
		for p := a.RowPtr[k]; p < a.RowPtr[k+1]; p++ {
			i := a.ColInd[p]
			for i != -1 && i < k {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	return parent
}

// ereach computes the nonzero pattern of row k of L as the set of
// nodes reachable in the elimination tree from the below-diagonal
// entries of row k of A. The pattern is written to the tail of s and
// returned (topologically ordered).
func ereach(a *CSR, k int, parent, w, s []int) []int {
	top := len(s)
	w[k] = k // mark k
	for p := a.RowPtr[k]; p < a.RowPtr[k+1]; p++ {
		i := a.ColInd[p]
		if i > k {
			continue
		}
		ln := 0
		for ; w[i] != k; i = parent[i] {
			s[ln] = i
			ln++
			w[i] = k
		}
		for ln > 0 {
			ln--
			top--
			s[top] = s[ln]
		}
	}
	return s[top:]
}

// NewCholesky factors the SPD matrix a (natural ordering, no fill
// reducing permutation: power-grid matrices are strongly diagonally
// dominant M-matrices where natural node ordering is acceptable for
// the sizes this library solves directly).
func NewCholesky(a *CSR) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, errors.New("sparse: Cholesky needs a square matrix")
	}
	n := a.Rows()
	parent := etree(a)

	// Column counts of L via repeated ereach (simple two-pass scheme).
	w := make([]int, n)
	s := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	counts := make([]int, n) // entries strictly below diagonal per column
	for k := 0; k < n; k++ {
		pat := ereach(a, k, parent, w, s)
		for _, j := range pat {
			counts[j]++
		}
	}
	colPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		colPtr[j+1] = colPtr[j] + counts[j] + 1 // +1 for the diagonal
	}
	nnz := colPtr[n]
	rowInd := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, n)
	for j := 0; j < n; j++ {
		next[j] = colPtr[j]
		rowInd[next[j]] = j // reserve diagonal slot first
		next[j]++
	}

	// Numeric factorization, one row of L at a time.
	for i := range w {
		w[i] = -1
	}
	x := make([]float64, n)
	diag := a.Diag()
	for k := 0; k < n; k++ {
		pat := ereach(a, k, parent, w, s)
		// Scatter row k of A (lower part) into x.
		x[k] = diag[k]
		for p := a.RowPtr[k]; p < a.RowPtr[k+1]; p++ {
			if j := a.ColInd[p]; j < k {
				x[j] = a.Val[p]
			}
		}
		d := x[k]
		x[k] = 0
		for _, j := range pat {
			lkj := x[j] / val[colPtr[j]]
			x[j] = 0
			for p := colPtr[j] + 1; p < next[j]; p++ {
				x[rowInd[p]] -= val[p] * lkj
			}
			d -= lkj * lkj
			val[next[j]] = lkj
			rowInd[next[j]] = k
			next[j]++
		}
		if d <= 0 {
			return nil, errNotPositiveDefinite
		}
		val[colPtr[k]] = math.Sqrt(d)
	}
	return &Cholesky{n: n, colPtr: colPtr, rowInd: rowInd, val: val, parent: parent}, nil
}

// N returns the dimension of the factored matrix.
func (c *Cholesky) N() int { return c.n }

// NNZ returns the number of stored entries of L.
func (c *Cholesky) NNZ() int { return c.colPtr[c.n] }

// Solve solves A·x = b. x and b may alias.
func (c *Cholesky) Solve(x, b []float64) {
	n := c.n
	if len(x) != n || len(b) != n {
		panic("sparse: Cholesky.Solve dimension mismatch")
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Forward solve L·y = b (L stored by column).
	for j := 0; j < n; j++ {
		x[j] /= c.val[c.colPtr[j]]
		for p := c.colPtr[j] + 1; p < c.colPtr[j+1]; p++ {
			x[c.rowInd[p]] -= c.val[p] * x[j]
		}
	}
	// Backward solve Lᵀ·x = y.
	for j := n - 1; j >= 0; j-- {
		for p := c.colPtr[j] + 1; p < c.colPtr[j+1]; p++ {
			x[j] -= c.val[p] * x[c.rowInd[p]]
		}
		x[j] /= c.val[c.colPtr[j]]
	}
}
