package main

import (
	"fmt"
	"log"

	"irfusion/internal/core"
	"irfusion/internal/metrics"
)

// fig7Point is one budget of the sweep: the MAE of the numerical
// solve and of fusion.
type fig7Point struct{ numMAE, fusMAE float64 }

// runFig7 reproduces the trade-off study: for solver iteration
// budgets k = 1..10, compare the pure numerical simulator
// (PowerRush-style budgeted PCG) against IR-Fusion whose rough stage
// runs the same k iterations before ML refinement. Both engines share
// the same preconditioner; see DESIGN.md for the scale substitution.
func runFig7(e *env_, outDir string) error {
	ours, err := e.trainSweepModel()
	if err != nil {
		return err
	}
	var tab table
	tab.row("iters", "numerical_mae_1e-4V", "numerical_f1", "fusion_mae_1e-4V", "fusion_f1",
		"numerical_runtime_s", "fusion_runtime_s")

	log.Printf("%5s %16s %14s %16s %12s", "iters", "PowerRush MAE", "PowerRush F1", "IR-Fusion MAE", "IR-Fusion F1")
	var curve []fig7Point
	for k := 1; k <= 10; k++ {
		// Pure numerical at budget k.
		var numReps, fusReps []metrics.Report
		na := &core.NumericalAnalyzer{Iters: k, Resolution: e.sc.Res}
		for di, d := range e.testDesigns {
			m, rt, _, err := na.AnalyzeCtx(e.ctx, d)
			if err != nil {
				return err
			}
			r := metrics.Evaluate(m, e.fullTest[di].Golden)
			r.Runtime = rt.Seconds()
			numReps = append(numReps, r)
		}
		// Fusion with rough features rebuilt at budget k.
		opts := e.fullOpts()
		opts.RoughIters = k
		samples, err := e.buildSamples(e.testDesigns, opts)
		if err != nil {
			return err
		}
		fusReps = ours.Evaluate(e.ctx, samples)
		numAvg := metrics.Average(numReps)
		fusAvg := metrics.Average(fusReps)
		curve = append(curve, fig7Point{numAvg.MAE, fusAvg.MAE})
		log.Printf("%5d %16.2f %14.2f %16.2f %12.2f",
			k, numAvg.MAE*1e4, numAvg.F1, fusAvg.MAE*1e4, fusAvg.F1)
		tab.row(k, fmt.Sprintf("%.3f", numAvg.MAE*1e4), fmt.Sprintf("%.3f", numAvg.F1),
			fmt.Sprintf("%.3f", fusAvg.MAE*1e4), fmt.Sprintf("%.3f", fusAvg.F1),
			fmt.Sprintf("%.4f", numAvg.Runtime), fmt.Sprintf("%.4f", fusAvg.Runtime))
	}

	e.verdicts = append(e.verdicts, fig7Verdicts(curve)...)
	return tab.write(outDir, "fig7")
}
