package nn

// Parity of the inference kernels with the forms they replaced: the
// stride-1 row copy of im2col against the per-element unroll, and the
// nil-tape Conv2D / eval BatchNorm2d against the taped path. All
// comparisons are bitwise.

import (
	"math"
	"math/rand"
	"testing"
)

// im2colPerElement is the reference unroll: one bounds test per output
// element, the form im2colRange had before it copied stride-1 rows.
func im2colPerElement(img, cols []float64, ic, ih, iw, kh, kw, stride, pad, oh, ow int) {
	dst := 0
	for c := 0; c < ic; c++ {
		for dy := 0; dy < kh; dy++ {
			for dx := 0; dx < kw; dx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						sy, sx := oy*stride+dy-pad, ox*stride+dx-pad
						v := 0.0
						if sy >= 0 && sy < ih && sx >= 0 && sx < iw {
							v = img[(c*ih+sy)*iw+sx]
						}
						cols[dst] = v
						dst++
					}
				}
			}
		}
	}
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randomSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func TestIm2colRowCopyMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kernels := []struct{ kh, kw int }{{3, 3}, {7, 7}, {1, 7}, {7, 1}, {1, 3}, {2, 2}}
	sizes := []struct{ ih, iw int }{{1, 1}, {2, 5}, {7, 3}, {9, 9}, {16, 12}}
	for _, k := range kernels {
		for _, sz := range sizes {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 3} {
					if sz.ih+2*pad < k.kh || sz.iw+2*pad < k.kw {
						continue
					}
					oh := (sz.ih+2*pad-k.kh)/stride + 1
					ow := (sz.iw+2*pad-k.kw)/stride + 1
					const ic = 3
					img := randomSlice(rng, ic*sz.ih*sz.iw)
					n := ic * k.kh * k.kw * oh * ow
					// Poisoned buffers: every element must be written.
					got, want := make([]float64, n), make([]float64, n)
					for i := range got {
						got[i], want[i] = math.NaN(), math.Inf(1)
					}
					im2col(img, got, ic, sz.ih, sz.iw, k.kh, k.kw, stride, pad, oh, ow)
					im2colPerElement(img, want, ic, sz.ih, sz.iw, k.kh, k.kw, stride, pad, oh, ow)
					if !bitwiseEqual(got, want) {
						t.Errorf("kernel %dx%d image %dx%d stride %d pad %d: row copy differs from the per-element unroll",
							k.kh, k.kw, sz.ih, sz.iw, stride, pad)
					}
				}
			}
		}
	}
}

// TestEvalKernelsMatchTapedPath: a nil tape selects the pooled column
// buffer in Conv2D and the statistics-free loop in BatchNorm2d; both
// must reproduce the taped path's bits, twice over (the second call
// runs on a recycled, dirty column buffer).
func TestEvalKernelsMatchTapedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := FromSlice(randomSlice(rng, 2*3*10*8), 2, 3, 10, 8)

	conv := NewConv2d(rng, 3, 5, 3, 1, 1)
	conv.B.Data = randomSlice(rng, 5)
	want := conv.Forward(NewTape(), x)
	for pass := 0; pass < 2; pass++ {
		if got := conv.Forward(nil, x); !bitwiseEqual(got.Data, want.Data) {
			t.Errorf("Conv2D pass %d: nil-tape output differs from the taped output", pass)
		}
	}

	bn := NewBatchNorm2d(3)
	bn.Gamma.Data, bn.Beta.Data = randomSlice(rng, 3), randomSlice(rng, 3)
	bn.Forward(nil, x) // training pass: sets the running statistics
	bn.SetTraining(false)
	mean, variance := append([]float64(nil), bn.RunMean...), append([]float64(nil), bn.RunVar...)
	want = bn.Forward(NewTape(), x)
	if got := bn.Forward(nil, x); !bitwiseEqual(got.Data, want.Data) {
		t.Error("BatchNorm2d: nil-tape eval output differs from the taped eval output")
	}
	if !bitwiseEqual(bn.RunMean, mean) || !bitwiseEqual(bn.RunVar, variance) {
		t.Error("BatchNorm2d eval forward wrote the running statistics")
	}
}
