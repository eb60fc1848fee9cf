package nn

// Parity of the inference kernels with the forms they replaced. The old
// code is the oracle and lives only here: the per-element unroll, the
// whole-image im2col + GEMM convolution (refConv2D), the nine-bounds-
// tests average pool. All comparisons are bitwise.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// im2colPerElement is the reference unroll: one bounds test per output
// element, the form im2col had before it copied stride-1 rows.
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

func poison(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
}

// TestIm2colRowCopyMatchesPerElement: im2colRows over the whole image,
// and over panels of 1, 2 and 3 output rows reassembled, is the
// per-element unroll — into poisoned buffers, so every element of a
// panel must be written.
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
					rowsK := ic * k.kh * k.kw
					img := randomSlice(rng, ic*sz.ih*sz.iw)
					want := make([]float64, rowsK*oh*ow)
					im2colPerElement(img, want, ic, sz.ih, sz.iw, k.kh, k.kw, stride, pad, oh, ow)
					for _, rows := range []int{oh, 1, 2, 3} {
						got, panel := make([]float64, len(want)), make([]float64, rowsK*rows*ow)
						for oy := 0; oy < oh; oy += rows {
							r := min(rows, oh-oy)
							poison(panel)
							im2colRows(img, panel, ic, sz.ih, sz.iw, k.kh, k.kw, stride, pad, ow, oy, r)
							for p := 0; p < rowsK; p++ {
								copy(got[p*oh*ow+oy*ow:][:r*ow], panel[p*r*ow:])
							}
						}
						if !bitwiseEqual(got, want) {
							t.Errorf("kernel %dx%d image %dx%d stride %d pad %d, %d-row panels: differs from the per-element unroll",
								k.kh, k.kw, sz.ih, sz.iw, stride, pad, rows)
						}
					}
				}
			}
		}
	}
}

// refConv2D is conv2D as it stood before the panel loop — unroll the
// whole image, one GEMM per sample, keep a copy of the columns for
// Backward — with the pool dispatch of im2col left out (it split rows,
// never sums).
func refConv2D(tp *Tape, x, w, b *Tensor, stride, pad int) *Tensor {
	n, ic, ih, iw := x.Dims4()
	oc, _, kh, kw := w.Dims4()
	oh := (ih+2*pad-kh)/stride + 1
	ow := (iw+2*pad-kw)/stride + 1
	k := ic * kh * kw
	cols := make([]float64, k*oh*ow)
	inputs := []*Tensor{x, w}
	if b != nil {
		inputs = append(inputs, b)
	}
	out := result(tp, []int{n, oc, oh, ow}, inputs...)
	var colsPerSample [][]float64
	keepCols := out.needsGrad && w.needsGrad
	for ni := 0; ni < n; ni++ {
		im2colPerElement(x.Data[ni*ic*ih*iw:(ni+1)*ic*ih*iw], cols, ic, ih, iw, kh, kw, stride, pad, oh, ow)
		gemm(w.Data, cols, out.Data[ni*oc*oh*ow:(ni+1)*oc*oh*ow], oc, k, oh*ow, false)
		if keepCols {
			colsPerSample = append(colsPerSample, append([]float64(nil), cols...))
		}
	}
	if b != nil {
		hw := oh * ow
		for ni := 0; ni < n; ni++ {
			for c := 0; c < oc; c++ {
				base := (ni*oc + c) * hw
				bv := b.Data[c]
				for j := 0; j < hw; j++ {
					out.Data[base+j] += bv
				}
			}
		}
	}
	if out.needsGrad {
		tp.record(func() {
			hw := oh * ow
			if b != nil && b.needsGrad {
				b.ensureGrad()
				for ni := 0; ni < n; ni++ {
					for c := 0; c < oc; c++ {
						base := (ni*oc + c) * hw
						sum := 0.0
						for j := 0; j < hw; j++ {
							sum += out.Grad[base+j]
						}
						b.Grad[c] += sum
					}
				}
			}
			colBuf := make([]float64, k*hw)
			for ni := 0; ni < n; ni++ {
				gradOut := out.Grad[ni*oc*hw : (ni+1)*oc*hw]
				if w.needsGrad {
					w.ensureGrad()
					gemmTB(gradOut, colsPerSample[ni], w.Grad, oc, hw, k, true)
				}
				if x.needsGrad {
					x.ensureGrad()
					gemmTA(w.Data, gradOut, colBuf, k, oc, hw, false)
					col2im(colBuf, x.Grad[ni*ic*ih*iw:(ni+1)*ic*ih*iw], ic, ih, iw, kh, kw, stride, pad, oh, ow)
				}
			}
		})
	}
	return out
}

// convCase is one convolution shape; padH != padW goes through
// conv2DRect (pad2D, then an unpadded convolution).
type convCase struct {
	ic, oc, ih, iw, kh, kw, stride, padH, padW int
	poisoned                                   bool // an Inf weight over a zero pixel, and a NaN pixel
}

func (c convCase) String() string {
	return fmt.Sprintf("ic%d oc%d %dx%d k%dx%d s%d p%d,%d", c.ic, c.oc, c.ih, c.iw, c.kh, c.kw, c.stride, c.padH, c.padW)
}

// run applies the case with conv standing for conv2D.
func (c convCase) run(conv func(tp *Tape, x, w, b *Tensor, stride, pad int) *Tensor, tp *Tape, x, w, b *Tensor) *Tensor {
	if c.padH == c.padW {
		return conv(tp, x, w, b, c.stride, c.padH)
	}
	return conv(tp, pad2D(tp, x, c.padH, c.padW), w, b, c.stride, 0)
}

// backward seeds out.Grad and replays the tape, returning dW, dx, db.
func backward(tp *Tape, out, x, w, b *Tensor, seed []float64) (dw, dx, db []float64) {
	for _, p := range []*Tensor{x, w, b} {
		p.Grad = make([]float64, len(p.Data))
	}
	copy(out.Grad, seed)
	for i := len(tp.steps) - 1; i >= 0; i-- {
		tp.steps[i]()
	}
	return w.Grad, x.Grad, b.Grad
}

// TestConv2DMatchesWholeImageReference: the panel loop against
// refConv2D on a nil tape, on an inference tape (twice, block and panel
// poisoned in between) and on a recording tape, where the gradients —
// dW is the product with the kept columns — must agree as well, on
// every GEMM leaf the machine has.
func TestConv2DMatchesWholeImageReference(t *testing.T) {
	ForEachLeaf(t, conv2DMatchesWholeImageReference)
}

func conv2DMatchesWholeImageReference(t *testing.T) {
	cases := []convCase{
		{3, 5, 10, 8, 3, 3, 1, 1, 1, false},   // ow 8: the image is one panel
		{3, 4, 40, 8, 3, 3, 1, 1, 1, false},   // 32-row panels, oh not a multiple
		{2, 3, 9, 5, 7, 7, 1, 3, 3, false},    // 7×7 same, ow 5: 51-row panels
		{2, 7, 10, 64, 3, 3, 1, 1, 1, false},  // ow 64: 4-row panels over oh = 10
		{8, 64, 8, 64, 3, 3, 1, 1, 1, false},  // oc 64: at the old row-parallel cutoff
		{1, 1, 3, 257, 3, 3, 1, 1, 1, false},  // ow > gemmPanel: one row per panel, two GEMM panels
		{2, 3, 2, 300, 3, 3, 1, 1, 1, false},  //
		{3, 4, 7, 3, 3, 3, 1, 0, 0, false},    // pad 0, ow 1
		{3, 4, 17, 13, 3, 3, 2, 1, 1, false},  // stride 2
		{2, 3, 65, 129, 3, 3, 2, 1, 1, false}, // stride 2, ow 65: 3-row panels
		{4, 4, 12, 70, 1, 7, 1, 0, 3, false},  // Inception B's factorised pair
		{4, 4, 70, 12, 7, 1, 1, 3, 0, false},  //
		{4, 3, 6, 66, 1, 3, 1, 0, 1, false},   // Inception C's
		{4, 3, 66, 6, 3, 1, 1, 1, 0, false},   //
		{2, 1, 64, 64, 7, 7, 1, 3, 3, false},  // CBAM's spatial convolution
		{24, 8, 16, 64, 3, 3, 1, 1, 1, false}, // the served 24 -> 8 decoder stage, cropped
		{3, 3, 8, 256, 3, 3, 1, 1, 1, false},  // ow == gemmPanel
		{3, 3, 9, 129, 3, 3, 1, 1, 1, false},  // one-row panels just past gemmPanel/2
		{2, 4, 300, 4, 3, 3, 1, 1, 1, false},  // tall: 64-row panels, a 44-row tail
		{5, 6, 1, 1, 3, 3, 1, 1, 1, false},    // one pixel
		{1, 2, 4, 4, 3, 3, 1, 1, 1, true},     // 0·Inf stays NaN
		{3, 4, 9, 64, 3, 3, 1, 1, 1, true},    //
	}
	rng := rand.New(rand.NewSource(26))
	for _, c := range cases {
		const n = 2
		x := FromSlice(randomSlice(rng, n*c.ic*c.ih*c.iw), n, c.ic, c.ih, c.iw)
		w, b := NewParam(c.oc, c.ic, c.kh, c.kw), NewParam(c.oc)
		w.Data, b.Data = randomSlice(rng, len(w.Data)), randomSlice(rng, c.oc)
		if c.poisoned {
			// 0·Inf must stay NaN and reach exactly the outputs it feeds.
			w.Data[4], x.Data[5], x.Data[len(x.Data)-3] = math.Inf(1), 0, math.NaN()
		}

		want := c.run(refConv2D, nil, x, w, b)
		if got := c.run(conv2D, nil, x, w, b); !bitwiseEqual(got.Data, want.Data) {
			t.Errorf("%v: nil-tape output differs from the whole-image reference", c)
		}
		tp := NewEvalTape()
		for pass := 0; pass < 3; pass++ {
			if got := c.run(conv2D, tp, x, w, b); !bitwiseEqual(got.Data, want.Data) {
				t.Errorf("%v: inference-tape pass %d differs from the whole-image reference", c, pass)
			}
			tp.Reset()
			poison(tp.block)
			poison(tp.cols[:cap(tp.cols)])
		}

		x.needsGrad = true
		rtp, gtp := NewTape(), NewTape()
		ref, got := c.run(refConv2D, rtp, x, w, b), c.run(conv2D, gtp, x, w, b)
		if !bitwiseEqual(got.Data, want.Data) || !bitwiseEqual(ref.Data, want.Data) {
			t.Errorf("%v: recording-tape output differs from the whole-image reference", c)
		}
		seed := randomSlice(rng, len(ref.Data))
		rw, rx, rb := backward(rtp, ref, x, w, b, seed)
		gw, gx, gb := backward(gtp, got, x, w, b, seed)
		if !bitwiseEqual(gw, rw) || !bitwiseEqual(gx, rx) || !bitwiseEqual(gb, rb) {
			t.Errorf("%v: gradients differ from the whole-image reference (dW %t dx %t db %t)",
				c, bitwiseEqual(gw, rw), bitwiseEqual(gx, rx), bitwiseEqual(gb, rb))
		}
		x.needsGrad, x.Grad = false, nil
	}
}

// TestEvalKernelsMatchTapedPath: nil-tape and inference-tape conv2D and
// eval BatchNorm2d reproduce the recording path's bits.
func TestEvalKernelsMatchTapedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := FromSlice(randomSlice(rng, 2*3*10*8), 2, 3, 10, 8)

	conv := NewConv2d(rng, 3, 5, 3, 1, 1)
	conv.B.Data = randomSlice(rng, 5)
	want := conv.Forward(NewTape(), x)
	etp := NewEvalTape()
	for pass := 0; pass < 2; pass++ {
		if got := conv.Forward(nil, x); !bitwiseEqual(got.Data, want.Data) {
			t.Errorf("conv2D pass %d: nil-tape output differs from the taped output", pass)
		}
		if got := conv.Forward(etp, x); !bitwiseEqual(got.Data, want.Data) {
			t.Errorf("conv2D pass %d: inference-tape output differs from the taped output", pass)
		}
		etp.Reset()
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
	if got := bn.Forward(etp, x); !bitwiseEqual(got.Data, want.Data) {
		t.Error("BatchNorm2d: inference-tape eval output differs from the taped eval output")
	}
	if !bitwiseEqual(bn.RunMean, mean) || !bitwiseEqual(bn.RunVar, variance) {
		t.Error("BatchNorm2d eval forward wrote the running statistics")
	}
}

// TestForwardReLUMatchesUnfused: in inference ForwardReLU is bit for
// bit ReLU(Forward()) and works in place; recording or in training mode
// it is the unfused pair — input untouched, same output, same gradients.
func TestForwardReLUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n, c, h, w = 2, 3, 6, 5
	data := randomSlice(rng, n*c*h*w)
	data[0], data[1], data[2] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	fresh := func() *Tensor { return FromSlice(append([]float64(nil), data...), n, c, h, w) }
	bn := NewBatchNorm2d(c)
	bn.Gamma.Data, bn.Beta.Data = randomSlice(rng, c), randomSlice(rng, c)
	bn.Forward(nil, fresh())
	bn.SetTraining(false)

	want := ReLU(nil, bn.Forward(nil, fresh()))
	if !math.IsNaN(want.Data[0]) {
		t.Fatalf("ReLU(BN(NaN)) = %v, want NaN", want.Data[0])
	}
	for _, tp := range []*Tape{nil, NewEvalTape()} {
		x := fresh()
		got := bn.ForwardReLU(tp, x)
		if got != x {
			t.Errorf("inference ForwardReLU (tape %v) did not work in place", tp != nil)
		}
		if !bitwiseEqual(got.Data, want.Data) {
			t.Errorf("inference ForwardReLU (tape %v) differs from ReLU(Forward())", tp != nil)
		}
	}

	for _, training := range []bool{false, true} {
		bn.SetTraining(training)
		stats := append(append([]float64(nil), bn.RunMean...), bn.RunVar...)
		restore := func() { copy(bn.RunMean, stats[:c]); copy(bn.RunVar, stats[c:]) }
		grads := func(fused bool) (out, dx, dg, db []float64) {
			restore()
			x := fresh()
			x.needsGrad = true
			tp := NewTape()
			var y *Tensor
			if fused {
				y = bn.ForwardReLU(tp, x)
			} else {
				y = ReLU(tp, bn.Forward(tp, x))
			}
			if y == x || !bitwiseEqual(x.Data, data) {
				t.Errorf("training=%t: ForwardReLU on a recording tape overwrote its input", training)
			}
			for _, p := range []*Tensor{bn.Gamma, bn.Beta} {
				p.zeroGrad()
			}
			x.ensureGrad()
			copy(y.Grad, randomSlice(rand.New(rand.NewSource(28)), len(y.Data)))
			for i := len(tp.steps) - 1; i >= 0; i-- {
				tp.steps[i]()
			}
			return y.Data, x.Grad, append([]float64(nil), bn.Gamma.Grad...), append([]float64(nil), bn.Beta.Grad...)
		}
		o1, x1, g1, b1 := grads(false)
		o2, x2, g2, b2 := grads(true)
		if !bitwiseEqual(o1, o2) || !bitwiseEqual(x1, x2) || !bitwiseEqual(g1, g2) || !bitwiseEqual(b1, b2) {
			t.Errorf("training=%t: ForwardReLU on a recording tape differs from ReLU(Forward()) in output or gradients", training)
		}
		if training {
			// Training mode on a nil tape still needs batch statistics:
			// the in-place pass must not be taken.
			restore()
			x := fresh()
			if y := bn.ForwardReLU(nil, x); y == x || !bitwiseEqual(x.Data, data) {
				t.Error("ForwardReLU in training mode took the in-place inference pass")
			}
		}
	}
}

// refAvgPool3x3 is AvgPool3x3Same's loop before the interior path:
// nine bounds tests per pixel.
func refAvgPool3x3(x []float64, h, w int) []float64 {
	out := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			sum := 0.0
			for sy := y - 1; sy <= y+1; sy++ {
				if sy < 0 || sy >= h {
					continue
				}
				for sx := xx - 1; sx <= xx+1; sx++ {
					if sx >= 0 && sx < w {
						sum += x[sy*w+sx]
					}
				}
			}
			out[y*w+xx] = sum * (1.0 / 9.0)
		}
	}
	return out
}

func TestAvgPool3x3MatchesBoundsTestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	negZero := math.Copysign(0, -1)
	for _, h := range []int{1, 2, 3, 5, 64} {
		for _, w := range []int{1, 2, 3, 5, 64} {
			for variant := 0; variant < 3; variant++ {
				x := FromSlice(randomSlice(rng, h*w), 1, 1, h, w)
				switch variant {
				case 1: // a plane of −0: every sum must come out +0
					x.Fill(negZero)
				case 2:
					x.Data[rng.Intn(h*w)] = math.NaN()
					x.Data[rng.Intn(h*w)] = negZero
				}
				want := refAvgPool3x3(x.Data, h, w)
				tp := NewEvalTape()
				for pass := 0; pass < 2; pass++ {
					if got := AvgPool3x3Same(tp, x); !bitwiseEqual(got.Data, want) {
						t.Errorf("%dx%d variant %d pass %d: differs from the bounds-tested loop", h, w, variant, pass)
					}
					tp.Reset()
					poison(tp.block)
				}
			}
		}
	}
}
