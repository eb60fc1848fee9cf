package nn

import "sync"

// colsPool lends Conv2D its im2col column buffer. im2col overwrites
// every element, so a borrowed buffer needs no zeroing, and a forward
// pass stops allocating (and the collector stops sweeping) k·oh·ow
// floats per convolution. Buffers too small for the asking conv are
// dropped; the pool converges on the largest shape in use.
var colsPool sync.Pool // of *[]float64

func borrowCols(n int) *[]float64 {
	if p, _ := colsPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	buf := make([]float64, n)
	return &buf
}

// Conv2D applies a 2-D convolution (cross-correlation) with weights
// w[OC, IC, KH, KW], optional bias b[OC] (nil to skip), the given
// stride, and symmetric zero padding. Implemented as im2col + GEMM.
func Conv2D(tp *Tape, x, w, b *Tensor, stride, pad int) *Tensor {
	n, ic, ih, iw := x.Dims4()
	oc, wic, kh, kw := w.Dims4()
	if wic != ic {
		panic("nn: Conv2D channel mismatch")
	}
	if b != nil && (len(b.Shape) != 1 || b.Shape[0] != oc) {
		panic("nn: Conv2D bias must be [OC]")
	}
	if stride < 1 {
		panic("nn: Conv2D stride must be >= 1")
	}
	oh := (ih+2*pad-kh)/stride + 1
	ow := (iw+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic("nn: Conv2D output collapsed to zero size")
	}
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		return conv1x1(tp, x, w, b)
	}

	k := ic * kh * kw
	colsBuf := borrowCols(k * oh * ow) // per-sample column buffer
	defer colsPool.Put(colsBuf)
	cols := *colsBuf
	inputs := []*Tensor{x, w}
	if b != nil {
		inputs = append(inputs, b)
	}
	out := result(tp, []int{n, oc, oh, ow}, inputs...)

	// Forward per sample to bound the buffer size.
	var colsPerSample [][]float64
	keepCols := out.needsGrad && w.needsGrad
	for ni := 0; ni < n; ni++ {
		im2col(x.Data[ni*ic*ih*iw:(ni+1)*ic*ih*iw], cols, ic, ih, iw, kh, kw, stride, pad, oh, ow)
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
					// dW += dOut · colsᵀ : [oc, hw]·[hw, k]
					gemmTB(gradOut, colsPerSample[ni], w.Grad, oc, hw, k, true)
				}
				if x.needsGrad {
					x.ensureGrad()
					// dCols = Wᵀ · dOut : [k, oc]·[oc, hw]
					gemmTA(w.Data, gradOut, colBuf, k, oc, hw, false)
					col2im(colBuf, x.Grad[ni*ic*ih*iw:(ni+1)*ic*ih*iw], ic, ih, iw, kh, kw, stride, pad, oh, ow)
				}
			}
		})
	}
	return out
}

// im2col unrolls input patches into columns: cols[k, oh*ow] with
// k = ic*kh*kw.
//
//irfusion:hotpath
func im2col(img, cols []float64, ic, ih, iw, kh, kw, stride, pad, oh, ow int) {
	rows := ic * kh * kw
	if rows <= 0 {
		return
	}
	if serialFor(rows) {
		cForSerial.Inc()
		im2colRange(img, cols, ih, iw, kh, kw, stride, pad, oh, ow, 0, rows)
		return
	}
	parallelFor(rows, func(start, end int) {
		im2colRange(img, cols, ih, iw, kh, kw, stride, pad, oh, ow, start, end)
	})
}

// im2colRange unrolls patch rows [start, end) into columns.
//
//irfusion:hotpath
func im2colRange(img, cols []float64, ih, iw, kh, kw, stride, pad, oh, ow, start, end int) {
	for row := start; row < end; row++ {
		c := row / (kh * kw)
		rem := row % (kh * kw)
		dy := rem / kw
		dx := rem % kw
		dst := row * oh * ow
		// At stride 1 the in-image part of an output row is one
		// contiguous run of the source row: ox in [lo, hi) reads
		// sx = ox+dx-pad in [0, iw); the run is empty (hi == lo) when
		// the tap lies wholly in the padding.
		lo := min(ow, max(0, pad-dx))
		hi := max(lo, min(ow, iw+pad-dx))
		for oy := 0; oy < oh; oy++ {
			sy := oy*stride + dy - pad
			if sy < 0 || sy >= ih {
				clear(cols[dst : dst+ow])
				dst += ow
				continue
			}
			srcBase := (c*ih + sy) * iw
			if stride == 1 {
				clear(cols[dst : dst+lo])
				if hi > lo {
					copy(cols[dst+lo:dst+hi], img[srcBase+lo+dx-pad:])
				}
				clear(cols[dst+hi : dst+ow])
				dst += ow
				continue
			}
			for ox := 0; ox < ow; ox++ {
				sx := ox*stride + dx - pad
				if sx < 0 || sx >= iw {
					cols[dst] = 0
				} else {
					cols[dst] = img[srcBase+sx]
				}
				dst++
			}
		}
	}
}

// col2im scatters column gradients back into the image gradient
// (accumulating).
//
//irfusion:hotpath
func col2im(cols, img []float64, ic, ih, iw, kh, kw, stride, pad, oh, ow int) {
	if ic <= 0 {
		return
	}
	// Parallelize over channels: rows of the same channel write to
	// disjoint channel planes only if we group by c.
	if serialFor(ic) {
		cForSerial.Inc()
		col2imRange(cols, img, ih, iw, kh, kw, stride, pad, oh, ow, 0, ic)
		return
	}
	parallelFor(ic, func(cStart, cEnd int) {
		col2imRange(cols, img, ih, iw, kh, kw, stride, pad, oh, ow, cStart, cEnd)
	})
}

// col2imRange scatters the columns of channels [cStart, cEnd) back
// into their image planes.
//
//irfusion:hotpath
func col2imRange(cols, img []float64, ih, iw, kh, kw, stride, pad, oh, ow, cStart, cEnd int) {
	for c := cStart; c < cEnd; c++ {
		for dy := 0; dy < kh; dy++ {
			for dx := 0; dx < kw; dx++ {
				row := (c*kh+dy)*kw + dx
				src := row * oh * ow
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride + dy - pad
					if sy < 0 || sy >= ih {
						src += ow
						continue
					}
					dstBase := (c*ih + sy) * iw
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride + dx - pad
						if sx >= 0 && sx < iw {
							img[dstBase+sx] += cols[src]
						}
						src++
					}
				}
			}
		}
	}
}

// MaxPool2x2 performs 2×2 max pooling with stride 2. Odd trailing
// rows/cols are dropped (floor semantics).
func MaxPool2x2(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	oh, ow := h/2, w/2
	if oh == 0 || ow == 0 {
		panic("nn: MaxPool2x2 input too small")
	}
	out := result(tp, []int{n, c, oh, ow}, x)
	argmax := make([]int32, out.Size())
	parallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			inBase := nc * h * w
			outBase := nc * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					i0 := inBase + (2*oy)*w + 2*ox
					best, bi := x.Data[i0], i0
					if v := x.Data[i0+1]; v > best {
						best, bi = v, i0+1
					}
					if v := x.Data[i0+w]; v > best {
						best, bi = v, i0+w
					}
					if v := x.Data[i0+w+1]; v > best {
						best, bi = v, i0+w+1
					}
					out.Data[outBase+oy*ow+ox] = best
					argmax[outBase+oy*ow+ox] = int32(bi)
				}
			}
		}
	})
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for i, g := range out.Grad {
				x.Grad[argmax[i]] += g
			}
		})
	}
	return out
}

// AvgPool2x2 performs 2×2 average pooling with stride 2.
func AvgPool2x2(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	oh, ow := h/2, w/2
	if oh == 0 || ow == 0 {
		panic("nn: AvgPool2x2 input too small")
	}
	out := result(tp, []int{n, c, oh, ow}, x)
	parallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			inBase := nc * h * w
			outBase := nc * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					i0 := inBase + (2*oy)*w + 2*ox
					out.Data[outBase+oy*ow+ox] = 0.25 * (x.Data[i0] + x.Data[i0+1] + x.Data[i0+w] + x.Data[i0+w+1])
				}
			}
		}
	})
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				inBase := nc * h * w
				outBase := nc * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						g := 0.25 * out.Grad[outBase+oy*ow+ox]
						i0 := inBase + (2*oy)*w + 2*ox
						x.Grad[i0] += g
						x.Grad[i0+1] += g
						x.Grad[i0+w] += g
						x.Grad[i0+w+1] += g
					}
				}
			}
		})
	}
	return out
}

// Upsample2x doubles spatial resolution by nearest-neighbor
// replication (the decoder upsampling used before concat+conv).
func Upsample2x(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	oh, ow := 2*h, 2*w
	out := result(tp, []int{n, c, oh, ow}, x)
	parallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			inBase := nc * h * w
			outBase := nc * oh * ow
			for y := 0; y < h; y++ {
				for xx := 0; xx < w; xx++ {
					v := x.Data[inBase+y*w+xx]
					d := outBase + (2*y)*ow + 2*xx
					out.Data[d] = v
					out.Data[d+1] = v
					out.Data[d+ow] = v
					out.Data[d+ow+1] = v
				}
			}
		}
	})
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				inBase := nc * h * w
				outBase := nc * oh * ow
				for y := 0; y < h; y++ {
					for xx := 0; xx < w; xx++ {
						d := outBase + (2*y)*ow + 2*xx
						x.Grad[inBase+y*w+xx] += out.Grad[d] + out.Grad[d+1] + out.Grad[d+ow] + out.Grad[d+ow+1]
					}
				}
			}
		})
	}
	return out
}

// GlobalAvgPool reduces [N,C,H,W] to [N,C,1,1] by spatial averaging.
func GlobalAvgPool(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	out := result(tp, []int{n, c, 1, 1}, x)
	hw := h * w
	inv := 1 / float64(hw)
	for nc := 0; nc < n*c; nc++ {
		sum := 0.0
		base := nc * hw
		for j := 0; j < hw; j++ {
			sum += x.Data[base+j]
		}
		out.Data[nc] = sum * inv
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				g := out.Grad[nc] * inv
				base := nc * hw
				for j := 0; j < hw; j++ {
					x.Grad[base+j] += g
				}
			}
		})
	}
	return out
}

// GlobalMaxPool reduces [N,C,H,W] to [N,C,1,1] by spatial max.
func GlobalMaxPool(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	out := result(tp, []int{n, c, 1, 1}, x)
	hw := h * w
	arg := make([]int, n*c)
	for nc := 0; nc < n*c; nc++ {
		base := nc * hw
		best, bi := x.Data[base], base
		for j := 1; j < hw; j++ {
			if v := x.Data[base+j]; v > best {
				best, bi = v, base+j
			}
		}
		out.Data[nc] = best
		arg[nc] = bi
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				x.Grad[arg[nc]] += out.Grad[nc]
			}
		})
	}
	return out
}

// ChannelMean reduces [N,C,H,W] to [N,1,H,W] averaging over channels
// (spatial-attention input of CBAM).
func ChannelMean(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	out := result(tp, []int{n, 1, h, w}, x)
	hw := h * w
	inv := 1 / float64(c)
	for ni := 0; ni < n; ni++ {
		oBase := ni * hw
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * hw
			for j := 0; j < hw; j++ {
				out.Data[oBase+j] += x.Data[base+j]
			}
		}
		for j := 0; j < hw; j++ {
			out.Data[oBase+j] *= inv
		}
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for ni := 0; ni < n; ni++ {
				oBase := ni * hw
				for ci := 0; ci < c; ci++ {
					base := (ni*c + ci) * hw
					for j := 0; j < hw; j++ {
						x.Grad[base+j] += out.Grad[oBase+j] * inv
					}
				}
			}
		})
	}
	return out
}

// ChannelMax reduces [N,C,H,W] to [N,1,H,W] taking the max over
// channels.
func ChannelMax(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	out := result(tp, []int{n, 1, h, w}, x)
	hw := h * w
	arg := make([]int, n*hw)
	for ni := 0; ni < n; ni++ {
		oBase := ni * hw
		for j := 0; j < hw; j++ {
			base := ni * c * hw
			best, bi := x.Data[base+j], base+j
			for ci := 1; ci < c; ci++ {
				idx := (ni*c+ci)*hw + j
				if v := x.Data[idx]; v > best {
					best, bi = v, idx
				}
			}
			out.Data[oBase+j] = best
			arg[oBase+j] = bi
		}
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for i, g := range out.Grad {
				x.Grad[arg[i]] += g
			}
		})
	}
	return out
}

// Linear applies y = x·Wᵀ + b for x[N, In], w[Out, In], b[Out] (nil
// to skip).
func Linear(tp *Tape, x, w, b *Tensor) *Tensor {
	if len(x.Shape) != 2 || len(w.Shape) != 2 {
		panic("nn: Linear expects 2-D input and weights")
	}
	n, in := x.Shape[0], x.Shape[1]
	outDim, win := w.Shape[0], w.Shape[1]
	if win != in {
		panic("nn: Linear dimension mismatch")
	}
	inputs := []*Tensor{x, w}
	if b != nil {
		inputs = append(inputs, b)
	}
	out := result(tp, []int{n, outDim}, inputs...)
	gemmTB(x.Data, w.Data, out.Data, n, in, outDim, false)
	if b != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < outDim; j++ {
				out.Data[i*outDim+j] += b.Data[j]
			}
		}
	}
	if out.needsGrad {
		tp.record(func() {
			if b != nil && b.needsGrad {
				b.ensureGrad()
				for i := 0; i < n; i++ {
					for j := 0; j < outDim; j++ {
						b.Grad[j] += out.Grad[i*outDim+j]
					}
				}
			}
			if w.needsGrad {
				w.ensureGrad()
				// dW += dOutᵀ · x : [outDim, n]·[n, in]
				gemmTA(out.Grad, x.Data, w.Grad, outDim, n, in, true)
			}
			if x.needsGrad {
				x.ensureGrad()
				// dX += dOut · W : [n, outDim]·[outDim, in]
				gemm(out.Grad, w.Data, x.Grad, n, outDim, in, true)
			}
		})
	}
	return out
}

// conv1x1 is the pointwise-convolution fast path: a pure GEMM with no
// im2col staging. It matters because Inception blocks and attention
// gates are dominated by 1×1 convolutions.
func conv1x1(tp *Tape, x, w, b *Tensor) *Tensor {
	n, ic, h, wd := x.Dims4()
	oc := w.Shape[0]
	hw := h * wd
	inputs := []*Tensor{x, w}
	if b != nil {
		inputs = append(inputs, b)
	}
	out := result(tp, []int{n, oc, h, wd}, inputs...)
	wmat := w.Data // [oc, ic] row-major (kh=kw=1)
	for ni := 0; ni < n; ni++ {
		gemm(wmat, x.Data[ni*ic*hw:(ni+1)*ic*hw], out.Data[ni*oc*hw:(ni+1)*oc*hw], oc, ic, hw, false)
	}
	if b != nil {
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
			for ni := 0; ni < n; ni++ {
				gradOut := out.Grad[ni*oc*hw : (ni+1)*oc*hw]
				if w.needsGrad {
					w.ensureGrad()
					// dW += dOut · Xᵀ : [oc, hw]·[hw, ic]
					gemmTB(gradOut, x.Data[ni*ic*hw:(ni+1)*ic*hw], w.Grad, oc, hw, ic, true)
				}
				if x.needsGrad {
					x.ensureGrad()
					// dX += Wᵀ · dOut : [ic, oc]·[oc, hw]
					gemmTA(wmat, gradOut, x.Grad[ni*ic*hw:(ni+1)*ic*hw], ic, oc, hw, true)
				}
			}
		})
	}
	return out
}
