// Package grid provides dense 2-D float64 maps — the image-like
// representation that the ML stage of IR-Fusion consumes. It covers
// rasterization of per-node quantities onto a pixel grid, the
// geometric transforms used for data augmentation (right-angle
// rotations and flips), bilinear resampling, summary statistics, and
// PGM/ASCII rendering for the Fig-6 style visual comparisons.
package grid

import (
	"fmt"
	"math"
	"strings"
)

// Map is a dense H×W raster stored row-major. The zero value is not
// usable; construct with New.
type Map struct {
	H, W int
	Data []float64
}

// New returns an H×W map initialized to zero.
func New(h, w int) *Map {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", h, w))
	}
	return &Map{H: h, W: w, Data: make([]float64, h*w)}
}

// FromData wraps an existing row-major slice (not copied).
func FromData(h, w int, data []float64) *Map {
	if len(data) != h*w {
		panic("grid: FromData length mismatch")
	}
	return &Map{H: h, W: w, Data: data}
}

// At returns the value at row y, column x.
func (m *Map) At(y, x int) float64 { return m.Data[y*m.W+x] }

// Set stores v at row y, column x.
func (m *Map) Set(y, x int, v float64) { m.Data[y*m.W+x] = v }

// Add accumulates v at row y, column x.
func (m *Map) Add(y, x int, v float64) { m.Data[y*m.W+x] += v }

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	c := New(m.H, m.W)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every pixel to v.
func (m *Map) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every pixel by s in place and returns m.
func (m *Map) Scale(s float64) *Map {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMap accumulates other into m pixel-wise (shapes must match).
func (m *Map) AddMap(other *Map) *Map {
	if m.H != other.H || m.W != other.W {
		panic("grid: AddMap shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += other.Data[i]
	}
	return m
}

// Min returns the minimum pixel value.
func (m *Map) Min() float64 {
	mn := math.Inf(1)
	for _, v := range m.Data {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// Max returns the maximum pixel value.
func (m *Map) Max() float64 {
	mx := math.Inf(-1)
	for _, v := range m.Data {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// ArgMax returns the (y, x) coordinates of the maximum pixel. Ties
// resolve to the first in row-major order.
func (m *Map) ArgMax() (int, int) {
	best, by, bx := math.Inf(-1), 0, 0
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if v := m.At(y, x); v > best {
				best, by, bx = v, y, x
			}
		}
	}
	return by, bx
}

// Mean returns the average pixel value.
func (m *Map) Mean() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s / float64(len(m.Data))
}

// Rotate90 returns the map rotated clockwise by 90°·quarter (quarter
// taken modulo 4; negative values rotate counter-clockwise).
func (m *Map) Rotate90(quarter int) *Map {
	q := ((quarter % 4) + 4) % 4
	switch q {
	case 0:
		return m.Clone()
	case 2:
		out := New(m.H, m.W)
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				out.Set(m.H-1-y, m.W-1-x, m.At(y, x))
			}
		}
		return out
	case 1: // clockwise: (y,x) -> (x, H-1-y)
		out := New(m.W, m.H)
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				out.Set(x, m.H-1-y, m.At(y, x))
			}
		}
		return out
	default: // q == 3, counter-clockwise: (y,x) -> (W-1-x, y)
		out := New(m.W, m.H)
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				out.Set(m.W-1-x, y, m.At(y, x))
			}
		}
		return out
	}
}

// Resize resamples the map to h×w with bilinear interpolation
// (align-corners convention when both target dims exceed 1).
func (m *Map) Resize(h, w int) *Map {
	out := New(h, w)
	sy := 0.0
	if h > 1 {
		sy = float64(m.H-1) / float64(h-1)
	}
	sx := 0.0
	if w > 1 {
		sx = float64(m.W-1) / float64(w-1)
	}
	for y := 0; y < h; y++ {
		fy := float64(y) * sy
		y0 := int(fy)
		y1 := y0 + 1
		if y1 >= m.H {
			y1 = m.H - 1
		}
		wy := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := float64(x) * sx
			x0 := int(fx)
			x1 := x0 + 1
			if x1 >= m.W {
				x1 = m.W - 1
			}
			wx := fx - float64(x0)
			v := (1-wy)*((1-wx)*m.At(y0, x0)+wx*m.At(y0, x1)) +
				wy*((1-wx)*m.At(y1, x0)+wx*m.At(y1, x1))
			out.Set(y, x, v)
		}
	}
	return out
}

// MAE returns the mean absolute difference between two equally-shaped
// maps.
func MAE(a, b *Map) float64 {
	if a.H != b.H || a.W != b.W {
		panic("grid: MAE shape mismatch")
	}
	s := 0.0
	for i := range a.Data {
		s += math.Abs(a.Data[i] - b.Data[i])
	}
	return s / float64(len(a.Data))
}

// PGM renders the map as a binary-free plain-text PGM (P2) image with
// 255 gray levels, normalized to the map's own range. Suitable for the
// Fig-6 heatmap dumps.
func (m *Map) PGM() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", m.W, m.H)
	mn, mx := m.Min(), m.Max()
	scale := 0.0
	if mx > mn {
		scale = 255 / (mx - mn)
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if x > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", int((m.At(y, x)-mn)*scale+0.5))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCII renders a coarse character heatmap (down-sampled to at most
// maxCols columns), dark-to-bright using a 10-step ramp. Handy for
// eyeballing predictions in a terminal.
func (m *Map) ASCII(maxCols int) string {
	ramp := []byte(" .:-=+*#%@")
	src := m
	if m.W > maxCols {
		scale := float64(maxCols) / float64(m.W)
		src = m.Resize(int(float64(m.H)*scale+0.5), maxCols)
	}
	mn, mx := src.Min(), src.Max()
	var b strings.Builder
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			idx := 0
			if mx > mn {
				idx = int((src.At(y, x) - mn) / (mx - mn) * float64(len(ramp)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
