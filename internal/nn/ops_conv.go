package nn

// conv2D applies a 2-D convolution (cross-correlation) with weights
// w[OC, IC, KH, KW], optional bias b[OC] (nil to skip), the given
// stride, and symmetric zero padding. Implemented as im2col + GEMM, one
// panel of output rows at a time: the k × oh·ow column matrix is never
// whole unless Backward will need it, and the panel being multiplied
// (at most k × gemmPanel floats once ow <= gemmPanel) stays in cache
// between its unroll and its last row quad. Every output element still
// receives its k products in p order, so the panel width moves no bit.
func conv2D(tp *Tape, x, w, b *Tensor, stride, pad int) *Tensor {
	n, ic, ih, iw := x.Dims4()
	oc, wic, kh, kw := w.Dims4()
	if wic != ic {
		panic("nn: conv2D channel mismatch")
	}
	if b != nil && (len(b.Shape) != 1 || b.Shape[0] != oc) {
		panic("nn: conv2D bias must be [OC]")
	}
	if stride < 1 {
		panic("nn: conv2D stride must be >= 1")
	}
	oh := (ih+2*pad-kh)/stride + 1
	ow := (iw+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic("nn: conv2D output collapsed to zero size")
	}
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		return conv1x1(tp, x, w, b)
	}

	k, hw := ic*kh*kw, oh*ow
	rows := min(oh, max(1, gemmPanel/ow)) // output rows per panel
	cols := tp.panel(k * rows * ow)
	inputs := []*Tensor{x, w}
	if b != nil {
		inputs = append(inputs, b)
	}
	out := result(tp, []int{n, oc, oh, ow}, inputs...)

	var colsPerSample [][]float64 // the whole matrices, for dW in Backward
	keepCols := out.needsGrad && w.needsGrad
	for ni := 0; ni < n; ni++ {
		img := x.Data[ni*ic*ih*iw : (ni+1)*ic*ih*iw]
		o := out.Data[ni*oc*hw : (ni+1)*oc*hw]
		var kept []float64
		if keepCols {
			kept = make([]float64, k*hw)
			colsPerSample = append(colsPerSample, kept)
		}
		cGemm.Inc() // one k × hw product per sample, whatever the panelling
		for oy := 0; oy < oh; oy += rows {
			r := min(rows, oh-oy)
			pw := r * ow
			im2colRows(img, cols, ic, ih, iw, kh, kw, stride, pad, ow, oy, r)
			gemmRange(w.Data, cols, o[oy*ow:], k, 1, oc, k, pw, pw, hw, false)
			if keepCols {
				for p := 0; p < k; p++ {
					copy(kept[p*hw+oy*ow:][:pw], cols[p*pw:])
				}
			}
		}
	}
	if b != nil {
		addBias(out.Data, b.Data, n*oc, hw)
	}

	if out.needsGrad {
		tp.record(func() {
			if b != nil && b.needsGrad {
				b.ensureGrad()
				biasGrad(out.Grad, b.Grad, n*oc, hw)
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

// addBias adds b[c] to plane nc of out[planes, hw], c = nc mod len(b).
func addBias(out, b []float64, planes, hw int) {
	for nc := 0; nc < planes; nc++ {
		bv := b[nc%len(b)]
		for j := nc * hw; j < (nc+1)*hw; j++ {
			out[j] += bv
		}
	}
}

// biasGrad is addBias's adjoint: db[c] += the sum of each plane of
// channel c of gradOut, plane by plane.
func biasGrad(gradOut, db []float64, planes, hw int) {
	for nc := 0; nc < planes; nc++ {
		sum := 0.0
		for j := nc * hw; j < (nc+1)*hw; j++ {
			sum += gradOut[j]
		}
		db[nc%len(db)] += sum
	}
}

// im2colRows unrolls the input patches of output rows [oy0, oy0+r)
// into cols[k, r*ow], k = ic*kh*kw: row (c, dy, dx) holds, for each of
// those output pixels, the input pixel its tap (dy, dx) of channel c
// reads, zero in the padding. Every element of cols is written.
//
//irfusion:hotpath
func im2colRows(img, cols []float64, ic, ih, iw, kh, kw, stride, pad, ow, oy0, r int) {
	dst := 0
	for c := 0; c < ic; c++ {
		for dy := 0; dy < kh; dy++ {
			for dx := 0; dx < kw; dx++ {
				// At stride 1 the in-image part of an output row is one
				// contiguous run of the source row: ox in [lo, hi) reads
				// sx = ox+dx-pad in [0, iw); the run is empty (hi == lo)
				// when the tap lies wholly in the padding.
				lo := min(ow, max(0, pad-dx))
				hi := max(lo, min(ow, iw+pad-dx))
				for oy := oy0; oy < oy0+r; oy++ {
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
	}
}

// col2im scatters column gradients back into the image gradient
// (accumulating).
//
//irfusion:hotpath
func col2im(cols, img []float64, ic, ih, iw, kh, kw, stride, pad, oh, ow int) {
	for c := 0; c < ic; c++ {
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
	var argmax []int32 // Backward's routing; inference keeps none
	if out.needsGrad {
		argmax = make([]int32, out.Size())
	}
	for nc := 0; nc < n*c; nc++ {
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
				if argmax != nil {
					argmax[outBase+oy*ow+ox] = int32(bi)
				}
			}
		}
	}
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
	for nc := 0; nc < n*c; nc++ {
		inBase := nc * h * w
		outBase := nc * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i0 := inBase + (2*oy)*w + 2*ox
				out.Data[outBase+oy*ow+ox] = 0.25 * (x.Data[i0] + x.Data[i0+1] + x.Data[i0+w] + x.Data[i0+w+1])
			}
		}
	}
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
	for nc := 0; nc < n*c; nc++ {
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
	var arg []int
	if out.needsGrad {
		arg = make([]int, n*c)
	}
	for nc := 0; nc < n*c; nc++ {
		base := nc * hw
		best, bi := x.Data[base], base
		for j := 1; j < hw; j++ {
			if v := x.Data[base+j]; v > best {
				best, bi = v, base+j
			}
		}
		out.Data[nc] = best
		if arg != nil {
			arg[nc] = bi
		}
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
		clear(out.Data[oBase : oBase+hw])
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
	var arg []int
	if out.needsGrad {
		arg = make([]int, n*hw)
	}
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
			if arg != nil {
				arg[oBase+j] = bi
			}
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
		addBias(out.Data, b.Data, n*oc, hw)
	}
	if out.needsGrad {
		tp.record(func() {
			if b != nil && b.needsGrad {
				b.ensureGrad()
				biasGrad(out.Grad, b.Grad, n*oc, hw)
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
