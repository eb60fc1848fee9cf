package grid

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomMap(h, w int, rng *rand.Rand) *Map {
	m := New(h, w)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func mapsEqual(a, b *Map) bool {
	if a.H != b.H || a.W != b.W {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5)
}

func TestAtSetAdd(t *testing.T) {
	m := New(3, 4)
	m.Set(2, 3, 1.5)
	m.Add(2, 3, 0.5)
	if m.At(2, 3) != 2 {
		t.Errorf("At = %v, want 2", m.At(2, 3))
	}
	if m.At(0, 0) != 0 {
		t.Error("untouched pixel should be zero")
	}
}

func TestStats(t *testing.T) {
	m := FromData(2, 2, []float64{1, -3, 5, 1})
	if m.Min() != -3 || m.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", m.Min(), m.Max())
	}
	if m.Mean() != 1 {
		t.Errorf("Mean = %v, want 1", m.Mean())
	}
	y, x := m.ArgMax()
	if y != 1 || x != 0 {
		t.Errorf("ArgMax = (%d,%d), want (1,0)", y, x)
	}
}

func TestRotate90Composition(t *testing.T) {
	// Property: four quarter-turns are the identity; two quarter-turns
	// equal a half-turn.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMap(1+rng.Intn(8), 1+rng.Intn(8), rng)
		r4 := m.Rotate90(1).Rotate90(1).Rotate90(1).Rotate90(1)
		if !mapsEqual(m, r4) {
			return false
		}
		r2 := m.Rotate90(1).Rotate90(1)
		return mapsEqual(m.Rotate90(2), r2)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestRotate90Known(t *testing.T) {
	m := FromData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	r := m.Rotate90(1)
	if r.H != 3 || r.W != 2 {
		t.Fatalf("rotated shape %dx%d, want 3x2", r.H, r.W)
	}
	want := []float64{
		4, 1,
		5, 2,
		6, 3,
	}
	for i := range want {
		if r.Data[i] != want[i] {
			t.Fatalf("rotated data %v, want %v", r.Data, want)
		}
	}
}

func TestRotateNegativeAndModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMap(5, 7, rng)
	if !mapsEqual(m.Rotate90(-1), m.Rotate90(3)) {
		t.Error("Rotate90(-1) != Rotate90(3)")
	}
	if !mapsEqual(m.Rotate90(5), m.Rotate90(1)) {
		t.Error("Rotate90(5) != Rotate90(1)")
	}
}

func TestFlipRotateRelation(t *testing.T) {
	// A half-turn rotation mirrors both axes.
	rng := rand.New(rand.NewSource(10))
	m := randomMap(6, 4, rng)
	r := m.Rotate90(2)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if r.At(m.H-1-y, m.W-1-x) != m.At(y, x) {
				t.Fatalf("Rotate180 moved (%d,%d) to the wrong pixel", y, x)
			}
		}
	}
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMap(7, 9, rng)
	r := m.Resize(7, 9)
	for i := range m.Data {
		if math.Abs(r.Data[i]-m.Data[i]) > 1e-12 {
			t.Fatal("identity resize changed data")
		}
	}
}

func TestResizePreservesConstant(t *testing.T) {
	m := New(5, 5)
	m.Fill(3.25)
	r := m.Resize(13, 7)
	for _, v := range r.Data {
		if math.Abs(v-3.25) > 1e-12 {
			t.Fatalf("constant not preserved: %v", v)
		}
	}
}

func TestResizeRangeBounded(t *testing.T) {
	// Bilinear interpolation can't overshoot the input range.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMap(2+rng.Intn(6), 2+rng.Intn(6), rng)
		r := m.Resize(1+rng.Intn(16), 1+rng.Intn(16))
		mn, mx := m.Min(), m.Max()
		for _, v := range r.Data {
			if v < mn-1e-12 || v > mx+1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestMAE(t *testing.T) {
	a := FromData(1, 4, []float64{0, 0, 0, 0})
	b := FromData(1, 4, []float64{1, -1, 2, 0})
	if got := MAE(a, b); got != 1 {
		t.Errorf("MAE = %v, want 1", got)
	}
}

func TestScaleAddMap(t *testing.T) {
	a := FromData(1, 2, []float64{1, 2})
	b := FromData(1, 2, []float64{10, 20})
	a.Scale(2).AddMap(b)
	if a.Data[0] != 12 || a.Data[1] != 24 {
		t.Errorf("got %v", a.Data)
	}
}

func TestPGMFormat(t *testing.T) {
	m := FromData(2, 2, []float64{0, 1, 2, 3})
	s := m.PGM()
	if !strings.HasPrefix(s, "P2\n2 2\n255\n") {
		t.Errorf("bad PGM header: %q", s[:20])
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d", len(lines))
	}
	if lines[3] != "0 85" || lines[4] != "170 255" {
		t.Errorf("pixel rows = %q, %q", lines[3], lines[4])
	}
}

func TestASCIIShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomMap(20, 100, rng)
	s := m.ASCII(40)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines[0]) != 40 {
		t.Errorf("ASCII width = %d, want 40", len(lines[0]))
	}
	small := randomMap(3, 5, rng)
	s2 := small.ASCII(40)
	if len(strings.Split(strings.TrimRight(s2, "\n"), "\n")) != 3 {
		t.Error("small maps should not be resized")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
}

func TestPPMFormat(t *testing.T) {
	m := FromData(1, 3, []float64{0, 0.5, 1})
	s := m.PPM()
	if !strings.HasPrefix(s, "P3\n3 1\n255\n") {
		t.Errorf("bad PPM header: %q", s[:12])
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	px := strings.Fields(lines[3])
	if len(px) != 9 {
		t.Fatalf("expected 9 components, got %d", len(px))
	}
	// Min maps to blue, max to red.
	if px[0] != "0" || px[2] != "255" {
		t.Errorf("min pixel should be blue: %v", px[:3])
	}
	if px[6] != "255" || px[8] != "0" {
		t.Errorf("max pixel should be red: %v", px[6:9])
	}
}

func TestHeatColorEndpointsAndClamp(t *testing.T) {
	r, g, b := heatColor(-1)
	if r != 0 || g != 0 || b != 255 {
		t.Errorf("below-range should clamp to blue, got %d %d %d", r, g, b)
	}
	r, g, b = heatColor(2)
	if r != 255 || g != 0 || b != 0 {
		t.Errorf("above-range should clamp to red, got %d %d %d", r, g, b)
	}
	r, g, b = heatColor(0.5)
	if g != 255 {
		t.Errorf("midpoint should be green-dominant, got %d %d %d", r, g, b)
	}
}

func TestDiffMap(t *testing.T) {
	a := FromData(1, 3, []float64{1, 5, -2})
	b := FromData(1, 3, []float64{4, 5, 2})
	d := DiffMap(a, b)
	want := []float64{3, 0, 4}
	for i := range want {
		if d.Data[i] != want[i] {
			t.Fatalf("DiffMap = %v, want %v", d.Data, want)
		}
	}
}
