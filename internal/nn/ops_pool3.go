package nn

// AvgPool3x3Same performs 3×3 average pooling with stride 1 and
// zero padding 1 (count-include-pad semantics), preserving the spatial
// size. Used by the pooling branch of Inception blocks.
func AvgPool3x3Same(tp *Tape, x *Tensor) *Tensor {
	n, c, h, w := x.Dims4()
	out := result(tp, x.Shape, x)
	const inv = 1.0 / 9.0
	for nc := 0; nc < n*c; nc++ {
		plane, o := x.Data[nc*h*w:][:h*w], out.Data[nc*h*w:][:h*w]
		for y := 0; y < h; y++ {
			if y == 0 || y == h-1 || w < 3 {
				for xx := 0; xx < w; xx++ {
					o[y*w+xx] = avg3x3Edge(plane, h, w, y, xx) * inv
				}
				continue
			}
			// Interior pixels: all nine taps exist, added in the edge
			// loop's order and onto the same +0 (a −0 tap stays +0).
			r0, r1, r2 := plane[(y-1)*w:][:w], plane[y*w:][:w], plane[(y+1)*w:][:w]
			oy := o[y*w:][:w]
			oy[0] = avg3x3Edge(plane, h, w, y, 0) * inv
			for xx := 1; xx < w-1; xx++ {
				sum := 0.0 + r0[xx-1] + r0[xx] + r0[xx+1] +
					r1[xx-1] + r1[xx] + r1[xx+1] +
					r2[xx-1] + r2[xx] + r2[xx+1]
				oy[xx] = sum * inv
			}
			oy[w-1] = avg3x3Edge(plane, h, w, y, w-1) * inv
		}
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				base := nc * h * w
				for y := 0; y < h; y++ {
					for xx := 0; xx < w; xx++ {
						g := out.Grad[base+y*w+xx] * inv
						for sy := y - 1; sy <= y+1; sy++ {
							if sy < 0 || sy >= h {
								continue
							}
							row := base + sy*w
							for sx := xx - 1; sx <= xx+1; sx++ {
								if sx >= 0 && sx < w {
									x.Grad[row+sx] += g
								}
							}
						}
					}
				}
			}
		})
	}
	return out
}

// avg3x3Edge sums the taps of pixel (y, xx) that lie inside the h×w
// plane, row by row, left to right.
//
//irfusion:hotpath
func avg3x3Edge(plane []float64, h, w, y, xx int) float64 {
	sum := 0.0
	for sy := max(y-1, 0); sy <= min(y+1, h-1); sy++ {
		for sx := max(xx-1, 0); sx <= min(xx+1, w-1); sx++ {
			sum += plane[sy*w+sx]
		}
	}
	return sum
}

// BroadcastHW expands x[N,C,1,1] to [N,C,H,W] by replication (the
// upsampling of a globally pooled pyramid level).
func BroadcastHW(tp *Tape, x *Tensor, h, w int) *Tensor {
	n, c, xh, xw := x.Dims4()
	if xh != 1 || xw != 1 {
		panic("nn: BroadcastHW input must be [N,C,1,1]")
	}
	out := result(tp, []int{n, c, h, w}, x)
	hw := h * w
	for nc := 0; nc < n*c; nc++ {
		v := x.Data[nc]
		base := nc * hw
		for j := 0; j < hw; j++ {
			out.Data[base+j] = v
		}
	}
	if out.needsGrad {
		tp.record(func() {
			x.ensureGrad()
			for nc := 0; nc < n*c; nc++ {
				base := nc * hw
				sum := 0.0
				for j := 0; j < hw; j++ {
					sum += out.Grad[base+j]
				}
				x.Grad[nc] += sum
			}
		})
	}
	return out
}
