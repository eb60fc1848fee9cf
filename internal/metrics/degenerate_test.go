package metrics

import (
	"math"
	"testing"

	"irfusion/internal/grid"
)

// zeros returns an h×w all-zero map.
func zeros(h, w int) *grid.Map { return grid.New(h, w) }

// withNaN returns a copy of m with pixel i set to NaN.
func withNaN(m *grid.Map, i int) *grid.Map {
	c := m.Clone()
	c.Data[i] = math.NaN()
	return c
}

// TestDegenerateMaps pins the documented semantics of every map
// metric on inputs real pipelines do produce: all-zero maps (an
// untrained model, or a design with no load), single-pixel maps
// (resolution 1), and NaN pixels (a diverged solve). These are the
// cases a refactor of the thresholding or accumulation logic silently
// breaks first.
func TestDegenerateMaps(t *testing.T) {
	uniform := grid.FromData(2, 2, []float64{3, 3, 3, 3})
	ramp := grid.FromData(2, 2, []float64{1, 2, 3, 4})

	cases := []struct {
		name         string
		pred, golden *grid.Map
		mae          float64
		f1           float64
		mirde        float64
		cc           float64
	}{
		{
			// thresh = 0.9·0 = 0, so every pixel is a golden positive
			// and a predicted positive: F1 is 1 by construction, the
			// hotspot region is everything with zero error, and CC is 0
			// because neither map has variance.
			name: "all-zero both",
			pred: zeros(4, 4), golden: zeros(4, 4),
			mae: 0, f1: 1, mirde: 0, cc: 0,
		},
		{
			// Golden all-zero keeps thresh at 0; a uniform positive
			// prediction still predicts every pixel hot (TP everywhere)
			// but now carries its value as error.
			name: "all-zero golden, uniform pred",
			pred: grid.FromData(2, 2, []float64{2, 2, 2, 2}), golden: zeros(2, 2),
			mae: 2, f1: 1, mirde: 2, cc: 0,
		},
		{
			// A constant map has zero variance: CC must define itself
			// to 0 rather than divide by zero.
			name: "uniform golden, exact pred",
			pred: uniform.Clone(), golden: uniform,
			mae: 0, f1: 1, mirde: 0, cc: 0,
		},
		{
			// Single pixel: the one pixel is always >= 0.9·max, so it
			// is hotspot; an exact prediction is perfect everywhere,
			// but a single point has no variance for CC.
			name: "single pixel exact",
			pred: grid.FromData(1, 1, []float64{5}), golden: grid.FromData(1, 1, []float64{5}),
			mae: 0, f1: 1, mirde: 0, cc: 0,
		},
		{
			name: "single pixel off",
			pred: grid.FromData(1, 1, []float64{4}), golden: grid.FromData(1, 1, []float64{5}),
			mae: 1, f1: 0, mirde: 1, cc: 0,
		},
		{
			// Negative-only golden: for a negative max, 0.9·max sits
			// ABOVE max, so no pixel clears the threshold — the hotspot
			// is empty, F1 collapses to 0 and MIRDE to its empty-region
			// default of 0 even for an exact prediction.
			name: "all-negative golden",
			pred: grid.FromData(1, 2, []float64{-1, -2}), golden: grid.FromData(1, 2, []float64{-1, -2}),
			mae: 0, f1: 0, mirde: 0, cc: 1,
		},
		{
			name: "ramp exact",
			pred: ramp.Clone(), golden: ramp,
			mae: 0, f1: 1, mirde: 0, cc: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MAE(tc.pred, tc.golden); got != tc.mae {
				t.Errorf("MAE = %g, want %g", got, tc.mae)
			}
			if got := F1(tc.pred, tc.golden); got != tc.f1 {
				t.Errorf("F1 = %g, want %g", got, tc.f1)
			}
			if got := MIRDE(tc.pred, tc.golden); got != tc.mirde {
				t.Errorf("MIRDE = %g, want %g", got, tc.mirde)
			}
			if got := cc(tc.pred, tc.golden); got != tc.cc {
				t.Errorf("CC = %g, want %g", got, tc.cc)
			}
		})
	}
}

// TestNaNPropagation pins how NaN pixels travel through each metric:
// the averaging metrics surface the NaN (so a diverged solve cannot
// hide behind a plausible score), while the thresholded classification
// treats NaN comparisons as false per IEEE-754 — a NaN pixel is simply
// never hot.
func TestNaNPropagation(t *testing.T) {
	golden := grid.FromData(1, 4, []float64{10, 9.5, 5, 1}) // thresh 9, hotspot {0,1}
	pred := grid.FromData(1, 4, []float64{10, 9.5, 5, 1})

	t.Run("NaN in pred averages", func(t *testing.T) {
		p := withNaN(pred, 0)
		if got := MAE(p, golden); !math.IsNaN(got) {
			t.Errorf("MAE = %g, want NaN", got)
		}
		if got := MIRDE(p, golden); !math.IsNaN(got) {
			t.Errorf("MIRDE = %g, want NaN", got)
		}
		if got := cc(p, golden); !math.IsNaN(got) {
			t.Errorf("CC = %g, want NaN", got)
		}
	})

	t.Run("NaN outside hotspot leaves MIRDE finite", func(t *testing.T) {
		// MIRDE only sums over the golden hotspot; a NaN in a cold
		// pixel must not poison it.
		p := withNaN(pred, 3)
		if got := MIRDE(p, golden); got != 0 {
			t.Errorf("MIRDE = %g, want 0", got)
		}
	})

	t.Run("NaN pred pixel is never hot", func(t *testing.T) {
		p := withNaN(pred, 0) // pixel 0 was a TP, now NaN >= thresh is false
		c := classify(p, golden)
		if c.TP != 1 || c.FN != 1 || c.FP != 0 || c.TN != 2 {
			t.Errorf("confusion %+v, want TP=1 FN=1 FP=0 TN=2", c)
		}
	})

	t.Run("NaN golden pixel drops out of hotspot", func(t *testing.T) {
		g := withNaN(golden, 1) // pixel 1 was hotspot; NaN >= thresh is false
		c := classify(pred, g)
		// pred pixel 1 still clears the threshold, so it becomes an FP.
		if c.TP != 1 || c.FP != 1 || c.FN != 0 || c.TN != 2 {
			t.Errorf("confusion %+v, want TP=1 FP=1 FN=0 TN=2", c)
		}
	})

	t.Run("all-NaN golden", func(t *testing.T) {
		g := grid.FromData(1, 2, []float64{math.NaN(), math.NaN()})
		// Max of all-NaN is NaN, the threshold is NaN, nothing is hot
		// on either side: zero confusion, F1 = 0.
		if got := F1(pred.Resize(1, 2), g); got != 0 {
			t.Errorf("F1 = %g, want 0", got)
		}
		if got := MIRDE(pred.Resize(1, 2), g); got != 0 {
			t.Errorf("MIRDE = %g, want 0 (empty hotspot)", got)
		}
	})
}
