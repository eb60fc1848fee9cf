package nn

import "irfusion/internal/obs"

// cGemm counts dense GEMM kernel calls (nn.gemm_calls in manifests):
// the dominant cost driver of the ML stage, cheap to count with one
// atomic add against the O(m·k·n) flops each call performs.
var cGemm = obs.GlobalCounter("nn.gemm_calls")

// gemmPanel is the column-panel width of the blocked kernels: four
// rows of C and four rows of B, 256 doubles each, are 16 KB — they stay
// in L1 while the k/4 passes of one row quad run over them, and the
// k×256 panel of B stays in L2 across the row quads.
const gemmPanel = 256

// Kernel names the GEMM leaf this process multiplies with: "avx2" where
// the processor and operating system support it (gemm_amd64.go), "go"
// everywhere else. A latency is only comparable to another taken on the
// same leaf, so /healthz and the run manifests report it.
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// gemm computes C = A·B (+C when accumulate) for row-major dense
// matrices: A is m×k, B is k×n, C is m×n.
//
// Contract of the three variants: every element of C is accumulated in
// p order — ((c + a₀b₀) + a₁b₁) + … in gemm and gemmTA, c being the old
// value when accumulate and +0 otherwise; c + ((0 + a₀b₀) + a₁b₁ + …)
// in gemmTB. The blocking below changes which elements are in flight
// together, never that order, so for finite inputs (and C not starting
// at −0) the result is bit for bit the in-order triple loop's. No
// multiplicand is skipped: 0·Inf is NaN, and a NaN or Inf in a row of A
// or a column of B reaches every element it feeds.
//
// Pinned bits are per architecture. The language lets a compiler fuse
// x*y + z into one rounding: the amd64 compiler does not, the arm64
// compiler does — in these kernels and in the in-order loop alike, so
// the paragraph above holds on each, but the hashes recorded in
// models/golden_test.go are amd64's. On amd64 both leaves of gemmQuad
// produce them.
//
//irfusion:hotpath
func gemm(a []float64, b []float64, c []float64, m, k, n int, accumulate bool) {
	cGemm.Inc()
	gemmRange(a, b, c, k, 1, m, k, n, n, n, accumulate)
}

// gemmTA computes C = Aᵀ·B (+C when accumulate): A is k×m (so Aᵀ is
// m×k), B is k×n, C is m×n. It is gemm with A's strides swapped.
//
//irfusion:hotpath
func gemmTA(a []float64, b []float64, c []float64, m, k, n int, accumulate bool) {
	cGemm.Inc()
	gemmRange(a, b, c, 1, m, m, k, n, n, n, accumulate)
}

// gemmTB computes C = A·Bᵀ (+C when accumulate): A is m×k, B is n×k,
// C is m×n.
//
//irfusion:hotpath
func gemmTB(a []float64, b []float64, c []float64, m, k, n int, accumulate bool) {
	cGemm.Inc()
	gemmTBRange(a, b, c, m, k, n, accumulate)
}

// gemmRange is the serial C = A·B leaf over the m rows of C, A(i,p)
// read at a[i*sai+p*sap] (gemmTA swaps the strides), B and C through their row strides ldb and ldc
// (both n for whole matrices; conv2D multiplies one column panel of a
// wider C). It walks C in gemmPanel-wide column panels and takes the
// rows of a panel four at a time (gemmQuad), the m%4 remainder one at a
// time (gemmRow).
//
//irfusion:hotpath
func gemmRange(a, b, c []float64, sai, sap, m, k, n, ldb, ldc int, accumulate bool) {
	for j0 := 0; j0 < n; j0 += gemmPanel {
		w := min(gemmPanel, n-j0)
		i := 0
		for ; i+4 <= m; i += 4 {
			c0, c1 := c[i*ldc+j0:][:w], c[(i+1)*ldc+j0:][:w]
			c2, c3 := c[(i+2)*ldc+j0:][:w], c[(i+3)*ldc+j0:][:w]
			if !accumulate {
				clear(c0)
				clear(c1)
				clear(c2)
				clear(c3)
			}
			gemmQuad(a[i*sai:], b[j0:], c0, c1, c2, c3, sai, sap, k, ldb)
		}
		for ; i < m; i++ {
			ci := c[i*ldc+j0:][:w]
			if !accumulate {
				clear(ci)
			}
			gemmRow(a[i*sai:], b[j0:], ci, sap, k, ldb)
		}
	}
}

// gemmQuad adds four rows of A times a column panel of B (row stride
// ldb, panel starting at b[0]) into the panel rows c0..c3. Where the
// processor has AVX2 the k&^3 × w&^3 body goes to gemmQuadAVX2, whose
// every lane runs gemmQuadGo's expression for one column — multiply,
// round, add, round, in p order — and gemmQuadGo finishes the p
// remainder over those columns and then the remaining columns over all
// of k, so each element still receives its products in p order and the
// bits are gemmQuadGo's alone. The leaf is chosen from what the machine
// reports (useAVX2), never by a caller: gemmQuadGo is the
// specification, the oracle of the differential tests, and the only
// leaf on every other architecture.
//
//irfusion:hotpath
func gemmQuad(a, b, c0, c1, c2, c3 []float64, sai, sap, k, ldb int) {
	w := len(c0)
	k4, w4 := k&^3, w&^3
	if !useAVX2 || k4 == 0 || w4 == 0 {
		gemmQuadGo(a, b, c0, c1, c2, c3, sai, sap, 0, k, ldb)
		return
	}
	c1, c2, c3 = c1[:w], c2[:w], c3[:w]
	_, _ = a[3*sai+(k4-1)*sap], b[(k4-1)*ldb+w4-1] // the last elements the kernel reads: it checks no bound itself
	gemmQuadAVX2(&a[0], &b[0], &c0[0], &c1[0], &c2[0], &c3[0], sai, sap, k4, ldb, w4)
	if k4 < k {
		gemmQuadGo(a, b, c0[:w4], c1, c2, c3, sai, sap, k4, k, ldb)
	}
	if w4 < w {
		gemmQuadGo(a, b[w4:], c0[w4:], c1[w4:], c2[w4:], c3[w4:], sai, sap, 0, k, ldb)
	}
}

// gemmQuadGo is gemmQuad for products [p0, k) in portable Go. Four rows
// of B are consumed per pass with the sixteen A scalars in locals: one
// load of each B element and one load and store of each C element feed
// sixteen multiply-adds, against two loads and a store for every one
// in the plain i-p-j loop. Each cⱼ receives its products in p order —
// Go evaluates c + x₀ + x₁ + x₂ + x₃ left to right.
//
//irfusion:hotpath
func gemmQuadGo(a, b, c0, c1, c2, c3 []float64, sai, sap, p0, k, ldb int) {
	w := len(c0)
	c1, c2, c3 = c1[:w], c2[:w], c3[:w]
	a1, a2, a3 := a[sai:], a[2*sai:], a[3*sai:]
	p := p0
	for ; p+4 <= k; p += 4 {
		q0, q1, q2, q3 := p*sap, (p+1)*sap, (p+2)*sap, (p+3)*sap
		a00, a01, a02, a03 := a[q0], a[q1], a[q2], a[q3]
		a10, a11, a12, a13 := a1[q0], a1[q1], a1[q2], a1[q3]
		a20, a21, a22, a23 := a2[q0], a2[q1], a2[q2], a2[q3]
		a30, a31, a32, a33 := a3[q0], a3[q1], a3[q2], a3[q3]
		b0, b1 := b[p*ldb:][:w], b[(p+1)*ldb:][:w]
		b2, b3 := b[(p+2)*ldb:][:w], b[(p+3)*ldb:][:w]
		for j, v0 := range b0 {
			v1, v2, v3 := b1[j], b2[j], b3[j]
			c0[j] = c0[j] + a00*v0 + a01*v1 + a02*v2 + a03*v3
			c1[j] = c1[j] + a10*v0 + a11*v1 + a12*v2 + a13*v3
			c2[j] = c2[j] + a20*v0 + a21*v1 + a22*v2 + a23*v3
			c3[j] = c3[j] + a30*v0 + a31*v1 + a32*v2 + a33*v3
		}
	}
	for ; p < k; p++ {
		q := p * sap
		a0p, a1p, a2p, a3p := a[q], a1[q], a2[q], a3[q]
		for j, v := range b[p*ldb:][:w] {
			c0[j] += a0p * v
			c1[j] += a1p * v
			c2[j] += a2p * v
			c3[j] += a3p * v
		}
	}
}

// gemmRow is gemmQuad for a single row of A and C.
//
//irfusion:hotpath
func gemmRow(a, b, c []float64, sap, k, ldb int) {
	w := len(c)
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := a[p*sap], a[(p+1)*sap], a[(p+2)*sap], a[(p+3)*sap]
		b0, b1 := b[p*ldb:][:w], b[(p+1)*ldb:][:w]
		b2, b3 := b[(p+2)*ldb:][:w], b[(p+3)*ldb:][:w]
		for j, v0 := range b0 {
			c[j] = c[j] + a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; p < k; p++ {
		ap := a[p*sap]
		for j, v := range b[p*ldb:][:w] {
			c[j] += ap * v
		}
	}
}

// gemmTBRange is the serial C = A·Bᵀ leaf over rows [start, end): dot
// products of a row of A with rows of B, four rows of B at a time. The
// four sums are independent chains, each in p order, so the add latency
// that bounds a single chain is overlapped instead of reassociated. (A
// sum started at +0 is never −0, so adding it to a cleared C stores it.)
//
//irfusion:hotpath
func gemmTBRange(a, b, c []float64, m, k, n int, accumulate bool) {
	for i := 0; i < m; i++ {
		ai := a[i*k:][:k]
		ci := c[i*n:][:n]
		if !accumulate {
			clear(ci)
		}
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1 := b[j*k:][:k], b[(j+1)*k:][:k]
			b2, b3 := b[(j+2)*k:][:k], b[(j+3)*k:][:k]
			var s0, s1, s2, s3 float64
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j] += s0
			ci[j+1] += s1
			ci[j+2] += s2
			ci[j+3] += s3
		}
		for ; j < n; j++ {
			sum := 0.0
			for p, bv := range b[j*k:][:k] {
				sum += ai[p] * bv
			}
			ci[j] += sum
		}
	}
}
