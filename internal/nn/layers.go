package nn

import (
	"math"
	"math/rand"
)

// Conv2d is a trainable convolution layer.
type Conv2d struct {
	W, B        *Tensor // W[OC,IC,KH,KW], B[OC] (may be nil)
	Stride, Pad int
}

// NewConv2d creates a He-initialized convolution with "same" padding
// for odd kernels when pad is kh/2.
func NewConv2d(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2d {
	w := NewParam(outC, inC, k, k)
	w.heInit(rng, inC*k*k)
	b := NewParam(outC)
	return &Conv2d{W: w, B: b, Stride: stride, Pad: pad}
}

// NewConv2dRect creates a convolution with a rectangular kernel
// (kh×kw), used by Inception's 1×7 / 7×1 factorized branches.
func NewConv2dRect(rng *rand.Rand, inC, outC, kh, kw, stride, padH, padW int) *Conv2dRect {
	w := NewParam(outC, inC, kh, kw)
	w.heInit(rng, inC*kh*kw)
	b := NewParam(outC)
	return &Conv2dRect{W: w, B: b, Stride: stride, PadH: padH, PadW: padW}
}

// Forward applies the convolution.
func (l *Conv2d) Forward(tp *Tape, x *Tensor) *Tensor {
	return conv2D(tp, x, l.W, l.B, l.Stride, l.Pad)
}

// Params returns the trainable tensors.
func (l *Conv2d) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// Conv2dRect is a convolution with independent vertical/horizontal
// padding, enabling rectangular kernels.
type Conv2dRect struct {
	W, B       *Tensor
	Stride     int
	PadH, PadW int
}

// Forward applies the rectangular convolution.
func (l *Conv2dRect) Forward(tp *Tape, x *Tensor) *Tensor {
	return conv2DRect(tp, x, l.W, l.B, l.Stride, l.PadH, l.PadW)
}

// Params returns the trainable tensors.
func (l *Conv2dRect) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// conv2DRect pads asymmetrically by materializing the padded input;
// kernels are small and this path is used sparingly (Inception B/C).
func conv2DRect(tp *Tape, x, w, b *Tensor, stride, padH, padW int) *Tensor {
	if padH == padW {
		return conv2D(tp, x, w, b, stride, padH)
	}
	padded := pad2D(tp, x, padH, padW)
	return conv2D(tp, padded, w, b, stride, 0)
}

// pad2D zero-pads the spatial dims by (padH, padW) on each side.
func pad2D(tp *Tape, x *Tensor, padH, padW int) *Tensor {
	n, c, h, w := x.Dims4()
	oh, ow := h+2*padH, w+2*padW
	out := result(tp, []int{n, c, oh, ow}, x)
	clear(out.Data)
	for nc := 0; nc < n*c; nc++ {
		for y := 0; y < h; y++ {
			src := nc*h*w + y*w
			dst := nc*oh*ow + (y+padH)*ow + padW
			copy(out.Data[dst:dst+w], x.Data[src:src+w])
		}
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				for y := 0; y < h; y++ {
					src := nc*h*w + y*w
					dst := nc*oh*ow + (y+padH)*ow + padW
					for i := 0; i < w; i++ {
						x.Grad[src+i] += out.Grad[dst+i]
					}
				}
			}
		})
	}
	return out
}

// BatchNorm2d normalizes per channel over (N, H, W) with learnable
// scale and shift, tracking running statistics for inference.
type BatchNorm2d struct {
	Gamma, Beta      *Tensor
	RunMean, RunVar  []float64
	Momentum, Eps    float64
	Training         bool
	initializedStats bool
}

// NewBatchNorm2d returns a batch-norm layer for c channels.
func NewBatchNorm2d(c int) *BatchNorm2d {
	g := NewParam(c)
	g.Fill(1)
	b := NewParam(c)
	return &BatchNorm2d{
		Gamma: g, Beta: b,
		RunMean: make([]float64, c), RunVar: make([]float64, c),
		Momentum: 0.1, Eps: 1e-5, Training: true,
	}
}

// Params returns the trainable tensors.
func (l *BatchNorm2d) Params() []*Tensor { return []*Tensor{l.Gamma, l.Beta} }

// Forward applies batch normalization. In training mode batch
// statistics are used and running statistics updated; in eval mode the
// running statistics are used.
func (l *BatchNorm2d) Forward(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	if c != len(l.RunMean) {
		panic("nn: BatchNorm2d channel mismatch")
	}
	out := result(tp, x.Shape, x, l.Gamma, l.Beta)
	hw := h * w
	if !tp.recording() && !l.Training {
		// Inference: nothing is recorded, so neither xhat nor copies of
		// the running statistics are kept — the output is the only
		// tensor made, and the layer is only read (reentrant). Same
		// arithmetic, in the same order, as the general path below.
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				base := (ni*c + ci) * hw
				g, bta := l.Gamma.Data[ci], l.Beta.Data[ci]
				mu, is := l.RunMean[ci], 1/math.Sqrt(l.RunVar[ci]+l.Eps)
				for j, xv := range x.Data[base : base+hw] {
					xh := (xv - mu) * is
					out.Data[base+j] = g*xh + bta
				}
			}
		}
		return out
	}
	m := float64(n * hw)

	mean := make([]float64, c)
	varc := make([]float64, c)
	if l.Training {
		for ci := 0; ci < c; ci++ {
			sum := 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * hw
				for j := 0; j < hw; j++ {
					sum += x.Data[base+j]
				}
			}
			mu := sum / m
			mean[ci] = mu
			vs := 0.0
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * hw
				for j := 0; j < hw; j++ {
					d := x.Data[base+j] - mu
					vs += d * d
				}
			}
			varc[ci] = vs / m
		}
		mom := l.Momentum
		if !l.initializedStats {
			mom = 1
			l.initializedStats = true
		}
		for ci := 0; ci < c; ci++ {
			l.RunMean[ci] = (1-mom)*l.RunMean[ci] + mom*mean[ci]
			l.RunVar[ci] = (1-mom)*l.RunVar[ci] + mom*varc[ci]
		}
	} else {
		copy(mean, l.RunMean)
		copy(varc, l.RunVar)
	}

	invStd := make([]float64, c)
	for ci := range invStd {
		invStd[ci] = 1 / math.Sqrt(varc[ci]+l.Eps)
	}
	xhat := make([]float64, x.Size())
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * hw
			g, bta := l.Gamma.Data[ci], l.Beta.Data[ci]
			mu, is := mean[ci], invStd[ci]
			for j := 0; j < hw; j++ {
				xh := (x.Data[base+j] - mu) * is
				xhat[base+j] = xh
				out.Data[base+j] = g*xh + bta
			}
		}
	}

	if out.needsGrad {
		training := l.Training
		tp.record(func() {
			if l.Beta.needsGrad {
				l.Beta.ensureGrad()
				for ni := 0; ni < n; ni++ {
					for ci := 0; ci < c; ci++ {
						base := (ni*c + ci) * hw
						sum := 0.0
						for j := 0; j < hw; j++ {
							sum += out.Grad[base+j]
						}
						l.Beta.Grad[ci] += sum
					}
				}
			}
			if l.Gamma.needsGrad {
				l.Gamma.ensureGrad()
				for ni := 0; ni < n; ni++ {
					for ci := 0; ci < c; ci++ {
						base := (ni*c + ci) * hw
						sum := 0.0
						for j := 0; j < hw; j++ {
							sum += out.Grad[base+j] * xhat[base+j]
						}
						l.Gamma.Grad[ci] += sum
					}
				}
			}
			if x.needsGrad {
				x.ensureGrad()
				for ci := 0; ci < c; ci++ {
					g := l.Gamma.Data[ci]
					is := invStd[ci]
					if !training {
						// Running stats are constants: dx = dy·γ·invStd.
						for ni := 0; ni < n; ni++ {
							base := (ni*c + ci) * hw
							for j := 0; j < hw; j++ {
								x.Grad[base+j] += out.Grad[base+j] * g * is
							}
						}
						continue
					}
					// Batch statistics depend on x: full adjoint.
					sumDy, sumDyXhat := 0.0, 0.0
					for ni := 0; ni < n; ni++ {
						base := (ni*c + ci) * hw
						for j := 0; j < hw; j++ {
							dy := out.Grad[base+j]
							sumDy += dy
							sumDyXhat += dy * xhat[base+j]
						}
					}
					for ni := 0; ni < n; ni++ {
						base := (ni*c + ci) * hw
						for j := 0; j < hw; j++ {
							dy := out.Grad[base+j]
							x.Grad[base+j] += g * is / m *
								(m*dy - sumDy - xhat[base+j]*sumDyXhat)
						}
					}
				}
			}
		})
	}
	return out
}

// ForwardReLU is ReLU(tp, l.Forward(tp, x)). In inference — nothing
// recorded, running statistics — it is one pass that overwrites x and
// returns it, with the arithmetic of Forward's inference loop and of
// ReLU per element, so the same bits. x must therefore be a tensor the
// caller has just made and nothing else reads: a convolution's output.
func (l *BatchNorm2d) ForwardReLU(tp *Tape, x *Tensor) *Tensor {
	if tp.recording() || l.Training {
		return ReLU(tp, l.Forward(tp, x))
	}
	n, c, h, w := x.Dims4()
	if c != len(l.RunMean) {
		panic("nn: BatchNorm2d channel mismatch")
	}
	hw := h * w
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			bnReLU(x.Data[(ni*c+ci)*hw:][:hw], l.Gamma.Data[ci], l.Beta.Data[ci],
				l.RunMean[ci], 1/math.Sqrt(l.RunVar[ci]+l.Eps))
		}
	}
	return x
}

// bnReLU is ForwardReLU's epilogue over one channel plane, in place.
//
//irfusion:hotpath
func bnReLU(plane []float64, g, bta, mu, is float64) {
	for j, xv := range plane {
		xh := (xv - mu) * is
		plane[j] = max(g*xh+bta, 0)
	}
}

// SetTraining toggles train/eval mode.
func (l *BatchNorm2d) SetTraining(v bool) { l.Training = v }

// StateVectors exposes the non-trainable running statistics for
// checkpointing (order: mean, variance).
func (l *BatchNorm2d) StateVectors() [][]float64 {
	return [][]float64{l.RunMean, l.RunVar}
}
