// Package metrics implements the evaluation metrics of the ICCAD-2023
// static IR-drop contest used throughout the paper: MAE, the F1 score
// over the hotspot region (IR drop above 90 % of the ground-truth
// maximum), and MIRDE (the error in the region of maximum IR drop).
package metrics

import (
	"fmt"
	"math"

	"irfusion/internal/grid"
)

// hotspotFraction is the contest threshold: pixels at or above this
// fraction of the golden maximum are hotspot positives.
const hotspotFraction = 0.9

// MAE returns the mean absolute error between prediction and golden.
func MAE(pred, golden *grid.Map) float64 {
	return grid.MAE(pred, golden)
}

// confusion counts hotspot classifications: both maps are thresholded
// at hotspotFraction × max(golden), per the contest definition.
type confusion struct {
	TP, FP, TN, FN int
}

// classify computes the hotspot confusion matrix.
func classify(pred, golden *grid.Map) confusion {
	if pred.H != golden.H || pred.W != golden.W {
		panic("metrics: shape mismatch")
	}
	thresh := hotspotFraction * golden.Max()
	var c confusion
	for i := range golden.Data {
		gp := golden.Data[i] >= thresh
		pp := pred.Data[i] >= thresh
		switch {
		case gp && pp:
			c.TP++
		case !gp && pp:
			c.FP++
		case gp && !pp:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// precision returns TP/(TP+FP), 0 when undefined.
func (c confusion) precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// recall returns TP/(TP+FN), 0 when undefined.
func (c confusion) recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c confusion) F1() float64 {
	p, r := c.precision(), c.recall()
	if p+r == 0 { //irfusion:exact precision and recall are exactly zero only when there are no positives at all; guard the division
		return 0
	}
	return 2 * p * r / (p + r)
}

// F1 is a convenience wrapper computing the hotspot F1 directly.
func F1(pred, golden *grid.Map) float64 {
	return classify(pred, golden).F1()
}

// MIRDE returns the maximum-IR-drop-region error: the mean absolute
// error over the golden hotspot region (≥ 90 % of the golden max),
// the worst-case region designers care about most.
func MIRDE(pred, golden *grid.Map) float64 {
	if pred.H != golden.H || pred.W != golden.W {
		panic("metrics: shape mismatch")
	}
	thresh := hotspotFraction * golden.Max()
	sum, n := 0.0, 0
	for i := range golden.Data {
		if golden.Data[i] >= thresh {
			sum += math.Abs(pred.Data[i] - golden.Data[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// cc returns the Pearson correlation coefficient between the two
// maps (an auxiliary fidelity metric; 1 is perfect).
func cc(pred, golden *grid.Map) float64 {
	if pred.H != golden.H || pred.W != golden.W {
		panic("metrics: shape mismatch")
	}
	mp, mg := pred.Mean(), golden.Mean()
	var spg, spp, sgg float64
	for i := range pred.Data {
		dp := pred.Data[i] - mp
		dg := golden.Data[i] - mg
		spg += dp * dg
		spp += dp * dp
		sgg += dg * dg
	}
	if spp == 0 || sgg == 0 { //irfusion:exact exactly zero variance means a constant signal; correlation is undefined, not merely small
		return 0
	}
	return spg / math.Sqrt(spp*sgg)
}

// Report bundles the per-design evaluation numbers.
type Report struct {
	MAE     float64
	F1      float64
	MIRDE   float64
	CC      float64
	Runtime float64 // seconds
}

// Evaluate computes all map metrics at once.
func Evaluate(pred, golden *grid.Map) Report {
	return Report{
		MAE:   MAE(pred, golden),
		F1:    F1(pred, golden),
		MIRDE: MIRDE(pred, golden),
		CC:    cc(pred, golden),
	}
}

// Average returns the element-wise mean of several reports.
func Average(rs []Report) Report {
	var out Report
	if len(rs) == 0 {
		return out
	}
	for _, r := range rs {
		out.MAE += r.MAE
		out.F1 += r.F1
		out.MIRDE += r.MIRDE
		out.CC += r.CC
		out.Runtime += r.Runtime
	}
	n := float64(len(rs))
	out.MAE /= n
	out.F1 /= n
	out.MIRDE /= n
	out.CC /= n
	out.Runtime /= n
	return out
}

// String formats a report in the paper's Table-I units: MAE and MIRDE
// in 1e-4 V, runtime in seconds.
func (r Report) String() string {
	return fmt.Sprintf("MAE=%.2f(1e-4V) F1=%.2f MIRDE=%.2f(1e-4V) CC=%.3f runtime=%.2fs",
		r.MAE*1e4, r.F1, r.MIRDE*1e4, r.CC, r.Runtime)
}
