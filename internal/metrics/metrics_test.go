package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"irfusion/internal/grid"
)

func TestMAEZeroForIdentical(t *testing.T) {
	m := grid.FromData(2, 2, []float64{1, 2, 3, 4})
	if MAE(m, m) != 0 {
		t.Error("MAE of identical maps must be 0")
	}
}

func TestClassifyKnown(t *testing.T) {
	golden := grid.FromData(1, 4, []float64{10, 9.5, 5, 1}) // thresh = 9
	pred := grid.FromData(1, 4, []float64{9.2, 1, 9.5, 2})
	c := classify(pred, golden)
	// pixel0: g+ p+ TP; pixel1: g+ p- FN; pixel2: g- p+ FP; pixel3: TN
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Errorf("confusion %+v", c)
	}
	if math.Abs(c.precision()-0.5) > 1e-12 || math.Abs(c.recall()-0.5) > 1e-12 {
		t.Error("P/R wrong")
	}
	if math.Abs(c.F1()-0.5) > 1e-12 {
		t.Errorf("F1 = %v, want 0.5", c.F1())
	}
}

func TestF1PerfectPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := grid.New(8, 8)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	if F1(g, g) != 1 {
		t.Error("perfect prediction must score F1 = 1")
	}
}

func TestF1EdgeCases(t *testing.T) {
	g := grid.FromData(1, 2, []float64{10, 1})
	miss := grid.FromData(1, 2, []float64{1, 1}) // no predicted positives
	if F1(miss, g) != 0 {
		t.Error("all-miss should be F1 = 0")
	}
	var c confusion
	if c.F1() != 0 || c.precision() != 0 || c.recall() != 0 {
		t.Error("empty confusion must score 0")
	}
}

func TestMIRDE(t *testing.T) {
	golden := grid.FromData(1, 4, []float64{10, 9.5, 5, 1}) // hotspot = {0,1}
	pred := grid.FromData(1, 4, []float64{9, 9.5, 0, 0})
	want := (1.0 + 0.0) / 2
	if got := MIRDE(pred, golden); math.Abs(got-want) > 1e-12 {
		t.Errorf("MIRDE = %v, want %v", got, want)
	}
}

func TestCCProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := grid.New(6, 6)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	if math.Abs(cc(g, g)-1) > 1e-12 {
		t.Error("self-correlation must be 1")
	}
	neg := g.Clone().Scale(-1)
	if math.Abs(cc(neg, g)+1) > 1e-12 {
		t.Error("negated map must correlate -1")
	}
	flat := grid.New(6, 6)
	if cc(flat, g) != 0 {
		t.Error("constant map correlation must be 0")
	}
}

func TestCCInvariantToAffine(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grid.New(4, 5)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		scaled := g.Clone().Scale(2.5)
		for i := range scaled.Data {
			scaled.Data[i] += 3
		}
		return math.Abs(cc(scaled, g)-1) < 1e-9
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestEvaluateAndAverage(t *testing.T) {
	g := grid.FromData(1, 4, []float64{10, 9.5, 5, 1})
	p := grid.FromData(1, 4, []float64{9, 9.5, 5, 1})
	r := Evaluate(p, g)
	if r.MAE != 0.25 {
		t.Errorf("MAE = %v", r.MAE)
	}
	avg := Average([]Report{{MAE: 1, F1: 0.5}, {MAE: 3, F1: 1}})
	if avg.MAE != 2 || avg.F1 != 0.75 {
		t.Errorf("Average = %+v", avg)
	}
	if Average(nil).MAE != 0 {
		t.Error("empty average should be zero")
	}
}

func TestReportString(t *testing.T) {
	s := Report{MAE: 2e-4, F1: 0.5, MIRDE: 3e-4}.String()
	if !strings.Contains(s, "MAE=2.00") || !strings.Contains(s, "F1=0.50") {
		t.Errorf("format: %s", s)
	}
}

func TestBetterPredictionScoresBetter(t *testing.T) {
	// Property: adding noise can only degrade (or tie) MAE, and a
	// heavily corrupted map should not beat a lightly corrupted one.
	rng := rand.New(rand.NewSource(3))
	g := grid.New(16, 16)
	for i := range g.Data {
		g.Data[i] = rng.Float64()
	}
	mk := func(noise float64) *grid.Map {
		p := g.Clone()
		for i := range p.Data {
			p.Data[i] += noise * rng.NormFloat64()
		}
		return p
	}
	small, large := mk(0.01), mk(0.5)
	if MAE(small, g) >= MAE(large, g) {
		t.Error("MAE ordering violated")
	}
	if MIRDE(small, g) >= MIRDE(large, g) {
		t.Error("MIRDE ordering violated")
	}
}
