package nn

// Zero-allocation regression guards for the dense GEMM and im2col
// kernels; see internal/sparse/alloc_test.go for the pattern
// rationale.

import (
	"math/rand"
	"runtime"
	"testing"

	"irfusion/internal/race"
)

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	fn()
	if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
		t.Errorf("%s: %v allocs per run in steady state, want 0", name, allocs)
	}
}

func TestZeroAllocGEMMVariants(t *testing.T) {
	// A shape inside one panel with row and k remainders, and the
	// served 3×3 convolution over 8 channels at 64×64.
	for _, s := range [][3]int{{9, 13, 10}, {8, 72, 4096}} {
		m, k, n := s[0], s[1], s[2]
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		c := make([]float64, m*n)
		for i := range a {
			a[i] = float64(i%7) - 3
		}
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		requireZeroAllocs(t, "gemm", func() { gemm(a, b, c, m, k, n, false) })
		requireZeroAllocs(t, "gemmTA", func() { gemmTA(a, b, c, m, k, n, false) })
		requireZeroAllocs(t, "gemmTB", func() { gemmTB(a, b, c, m, k, n, false) })
	}
}

func TestZeroAllocIm2colCol2im(t *testing.T) {
	const ic, ih, iw = 3, 9, 9
	const kh, kw, stride, pad = 3, 3, 1, 1
	oh := (ih+2*pad-kh)/stride + 1
	ow := (iw+2*pad-kw)/stride + 1
	img := make([]float64, ic*ih*iw)
	cols := make([]float64, ic*kh*kw*oh*ow)
	grad := make([]float64, ic*ih*iw)
	for i := range img {
		img[i] = float64(i%11) * 0.5
	}
	requireZeroAllocs(t, "im2colRows", func() {
		im2colRows(img, cols, ic, ih, iw, kh, kw, stride, pad, ow, 0, oh)
	})
	requireZeroAllocs(t, "col2im", func() {
		col2im(cols, grad, ic, ih, iw, kh, kw, stride, pad, oh, ow)
	})
}

// evalAllocBytes reports the heap bytes and objects one call of fn
// allocates in steady state, averaged over 50 calls.
func evalAllocBytes(fn func()) (bytes, objects float64) {
	const runs = 50
	fn() // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestEvalConvAndBatchNormAllocateOnlyTheirOutput: on the heap (nil
// tape) conv2D allocates its output and one column panel — never the
// k·oh·ow matrix — and eval BatchNorm2d keeps neither xhat nor
// statistics copies; on an inference tape in steady state both allocate
// the tensor header and no float at all.
func TestEvalConvAndBatchNormAllocateOnlyTheirOutput(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ic, oc, h, w = 8, 4, 32, 32
	x := NewTensor(1, ic, h, w)
	for i := range x.Data {
		x.Data[i] = float64(i%13) - 6
	}
	conv := NewConv2d(rand.New(rand.NewSource(1)), ic, oc, 3, 1, 1)
	const panel = ic * 3 * 3 * gemmPanel * 8 // an eighth of the whole column matrix
	const slack = 512                        // tensor struct + shape slice

	bytes, objects := evalAllocBytes(func() { conv.Forward(nil, x) })
	if limit := float64(oc*h*w*8 + panel + slack); bytes > limit || objects > 8 {
		t.Errorf("eval conv2D allocates %.0f B in %.1f objects per call, want <= %.0f B (output %d B, panel %d B) in <= 8",
			bytes, objects, limit, oc*h*w*8, panel)
	}

	bn := NewBatchNorm2d(ic)
	bn.SetTraining(false)
	bytes, objects = evalAllocBytes(func() { bn.Forward(nil, x) })
	if limit := float64(ic*h*w*8 + slack); bytes > limit || objects > 8 {
		t.Errorf("eval BatchNorm2d allocates %.0f B in %.1f objects per call, want <= %.0f B (the output alone) in <= 8",
			bytes, objects, limit)
	}

	tp, bnOut := NewEvalTape(), NewBatchNorm2d(oc)
	bnOut.SetTraining(false)
	bytes, objects = evalAllocBytes(func() {
		bnOut.ForwardReLU(tp, conv.Forward(tp, x))
		bn.Forward(tp, x)
		tp.Reset()
	})
	if bytes > 2*slack || objects > 8 {
		t.Errorf("conv + BN-ReLU + BN on a warm inference tape allocate %.0f B in %.1f objects, want <= %d B (headers only) in <= 8",
			bytes, objects, 2*slack)
	}
}
