package nn

import "math"

// Add returns x + y elementwise (same shapes).
func Add(tp *Tape, x, y *Tensor) *Tensor {
	if !sameShape(x, y) {
		panic("nn: Add shape mismatch")
	}
	out := result(tp, x.Shape, x, y)
	for i := range out.Data {
		out.Data[i] = x.Data[i] + y.Data[i]
	}
	if out.needsGrad {
		tp.record(func() {
			if x.needsGrad {
				x.ensureGrad()
				for i := range out.Grad {
					x.Grad[i] += out.Grad[i]
				}
			}
			if y.needsGrad {
				y.ensureGrad()
				for i := range out.Grad {
					y.Grad[i] += out.Grad[i]
				}
			}
		})
	}
	return out
}

// sub returns x − y elementwise.
func sub(tp *Tape, x, y *Tensor) *Tensor {
	if !sameShape(x, y) {
		panic("nn: sub shape mismatch")
	}
	out := result(tp, x.Shape, x, y)
	for i := range out.Data {
		out.Data[i] = x.Data[i] - y.Data[i]
	}
	if out.needsGrad {
		tp.record(func() {
			if x.needsGrad {
				x.ensureGrad()
				for i := range out.Grad {
					x.Grad[i] += out.Grad[i]
				}
			}
			if y.needsGrad {
				y.ensureGrad()
				for i := range out.Grad {
					y.Grad[i] -= out.Grad[i]
				}
			}
		})
	}
	return out
}

// mul returns x ⊙ y elementwise.
func mul(tp *Tape, x, y *Tensor) *Tensor {
	if !sameShape(x, y) {
		panic("nn: mul shape mismatch")
	}
	out := result(tp, x.Shape, x, y)
	for i := range out.Data {
		out.Data[i] = x.Data[i] * y.Data[i]
	}
	if out.needsGrad {
		tp.record(func() {
			if x.needsGrad {
				x.ensureGrad()
				for i := range out.Grad {
					x.Grad[i] += out.Grad[i] * y.Data[i]
				}
			}
			if y.needsGrad {
				y.ensureGrad()
				for i := range out.Grad {
					y.Grad[i] += out.Grad[i] * x.Data[i]
				}
			}
		})
	}
	return out
}

// scale returns s·x for a constant s.
func scale(tp *Tape, x *Tensor, s float64) *Tensor {
	out := result(tp, x.Shape, x)
	for i := range out.Data {
		out.Data[i] = s * x.Data[i]
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for i := range out.Grad {
				x.Grad[i] += s * out.Grad[i]
			}
		})
	}
	return out
}

// ReLU returns max(x, 0): NaN stays NaN (a poisoned activation must
// reach the output, not be rectified to a plausible zero), −0 becomes +0.
func ReLU(tp *Tape, x *Tensor) *Tensor {
	out := result(tp, x.Shape, x)
	for i, v := range x.Data {
		out.Data[i] = max(v, 0)
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for i := range out.Grad {
				if x.Data[i] > 0 {
					x.Grad[i] += out.Grad[i]
				}
			}
		})
	}
	return out
}

// Sigmoid returns 1/(1+e^{−x}).
func Sigmoid(tp *Tape, x *Tensor) *Tensor {
	out := result(tp, x.Shape, x)
	for i, v := range x.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for i := range out.Grad {
				s := out.Data[i]
				x.Grad[i] += out.Grad[i] * s * (1 - s)
			}
		})
	}
	return out
}

// MulChannel multiplies x[N,C,H,W] by a per-channel gate s[N,C,1,1]
// (the channel-attention product of CBAM).
func MulChannel(tp *Tape, x, s *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	sn, sc, sh, sw := s.Dims4()
	if sn != n || sc != c || sh != 1 || sw != 1 {
		panic("nn: MulChannel gate must be [N,C,1,1]")
	}
	out := result(tp, x.Shape, x, s)
	hw := h * w
	for i := 0; i < n*c; i++ {
		g := s.Data[i]
		base := i * hw
		for j := 0; j < hw; j++ {
			out.Data[base+j] = x.Data[base+j] * g
		}
	}
	if out.needsGrad {
		tp.record(func() {
			if x.needsGrad {
				x.ensureGrad()
				for i := 0; i < n*c; i++ {
					g := s.Data[i]
					base := i * hw
					for j := 0; j < hw; j++ {
						x.Grad[base+j] += out.Grad[base+j] * g
					}
				}
			}
			if s.needsGrad {
				s.ensureGrad()
				for i := 0; i < n*c; i++ {
					base := i * hw
					sum := 0.0
					for j := 0; j < hw; j++ {
						sum += out.Grad[base+j] * x.Data[base+j]
					}
					s.Grad[i] += sum
				}
			}
		})
	}
	return out
}

// MulSpatial multiplies x[N,C,H,W] by a per-pixel gate s[N,1,H,W]
// (the spatial-attention product of CBAM and attention gates).
func MulSpatial(tp *Tape, x, s *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	sn, sc, sh, sw := s.Dims4()
	if sn != n || sc != 1 || sh != h || sw != w {
		panic("nn: MulSpatial gate must be [N,1,H,W]")
	}
	out := result(tp, x.Shape, x, s)
	hw := h * w
	for ni := 0; ni < n; ni++ {
		gbase := ni * hw
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * hw
			for j := 0; j < hw; j++ {
				out.Data[base+j] = x.Data[base+j] * s.Data[gbase+j]
			}
		}
	}
	if out.needsGrad {
		tp.record(func() {
			if x.needsGrad {
				x.ensureGrad()
				for ni := 0; ni < n; ni++ {
					gbase := ni * hw
					for ci := 0; ci < c; ci++ {
						base := (ni*c + ci) * hw
						for j := 0; j < hw; j++ {
							x.Grad[base+j] += out.Grad[base+j] * s.Data[gbase+j]
						}
					}
				}
			}
			if s.needsGrad {
				s.ensureGrad()
				for ni := 0; ni < n; ni++ {
					gbase := ni * hw
					for ci := 0; ci < c; ci++ {
						base := (ni*c + ci) * hw
						for j := 0; j < hw; j++ {
							s.Grad[gbase+j] += out.Grad[base+j] * x.Data[base+j]
						}
					}
				}
			}
		})
	}
	return out
}

// Concat concatenates tensors along the channel dimension (dim 1).
func Concat(tp *Tape, xs ...*Tensor) *Tensor {
	if len(xs) == 0 {
		panic("nn: Concat of nothing")
	}
	n, _, h, w := xs[0].Dims4()
	totalC := 0
	for _, x := range xs {
		xn, xc, xh, xw := x.Dims4()
		if xn != n || xh != h || xw != w {
			panic("nn: Concat shape mismatch")
		}
		totalC += xc
	}
	out := result(tp, []int{n, totalC, h, w}, xs...)
	hw := h * w
	off := 0
	for _, x := range xs {
		xc := x.Shape[1]
		for ni := 0; ni < n; ni++ {
			src := ni * xc * hw
			dst := (ni*totalC + off) * hw
			copy(out.Data[dst:dst+xc*hw], x.Data[src:src+xc*hw])
		}
		off += xc
	}
	if out.needsGrad {
		tp.record(func() {
			off := 0
			for _, x := range xs {
				xc := x.Shape[1]
				if x.needsGrad {
					x.ensureGrad()
					for ni := 0; ni < n; ni++ {
						src := ni * xc * hw
						dst := (ni*totalC + off) * hw
						for i := 0; i < xc*hw; i++ {
							x.Grad[src+i] += out.Grad[dst+i]
						}
					}
				}
				off += xc
			}
		})
	}
	return out
}

// mean reduces the tensor to its scalar average.
func mean(tp *Tape, x *Tensor) *Tensor {
	out := result(tp, []int{1}, x)
	sum := 0.0
	for _, v := range x.Data {
		sum += v
	}
	inv := 1 / float64(x.Size())
	out.Data[0] = sum * inv
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			g := out.Grad[0] * inv
			for i := range x.Grad {
				x.Grad[i] += g
			}
		})
	}
	return out
}

// MSELoss returns mean((pred − target)²). target is treated as a
// constant.
func MSELoss(tp *Tape, pred, target *Tensor) *Tensor {
	if !sameShape(pred, target) {
		panic("nn: MSELoss shape mismatch")
	}
	out := result(tp, []int{1}, pred)
	sum := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sum += d * d
	}
	inv := 1 / float64(pred.Size())
	out.Data[0] = sum * inv
	if out.needsGrad {
		tp.record(func() {
			pred.ensureGrad()
			g := out.Grad[0] * 2 * inv
			for i := range pred.Grad {
				pred.Grad[i] += g * (pred.Data[i] - target.Data[i])
			}
		})
	}
	return out
}

// WeightedMSELoss returns mean(w ⊙ (pred − target)²) for a constant
// per-element weight tensor — used to emphasize hotspot pixels (the
// label-distribution-smoothing idea of PGAU applied as re-weighting).
func WeightedMSELoss(tp *Tape, pred, target, w *Tensor) *Tensor {
	if !sameShape(pred, target) || !sameShape(pred, w) {
		panic("nn: WeightedMSELoss shape mismatch")
	}
	out := result(tp, []int{1}, pred)
	sum := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sum += w.Data[i] * d * d
	}
	inv := 1 / float64(pred.Size())
	out.Data[0] = sum * inv
	if out.needsGrad {
		tp.record(func() {
			pred.ensureGrad()
			g := out.Grad[0] * 2 * inv
			for i := range pred.Grad {
				pred.Grad[i] += g * w.Data[i] * (pred.Data[i] - target.Data[i])
			}
		})
	}
	return out
}
