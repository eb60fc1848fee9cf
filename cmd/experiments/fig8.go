package main

import (
	"fmt"
	"log"

	"irfusion/internal/core"
	"irfusion/internal/metrics"
)

// ablation describes one removed technique of Fig 8.
type ablation struct {
	key, label string
	mutate     func(core.Config) core.Config
	// rebuildData indicates the feature set changes (numerical /
	// hierarchical ablations), requiring fresh samples.
	rebuildData bool
}

var ablations = []ablation{
	{"full", "IR-Fusion (full)", func(c core.Config) core.Config { return c }, false},
	{"no_num", "w/o Num. Solu.", func(c core.Config) core.Config { c.UseNumerical = false; return c }, true},
	{"no_hier", "w/o Hier. Feat.", func(c core.Config) core.Config { c.Hierarchical = false; return c }, true},
	{"no_inception", "w/o Inception", func(c core.Config) core.Config { c.UseInception = false; return c }, false},
	{"no_cbam", "w/o CBAM", func(c core.Config) core.Config { c.UseCBAM = false; return c }, false},
	{"no_aug", "w/o Data Aug.", func(c core.Config) core.Config { c.UseAugmentation = false; return c }, false},
	{"no_curr", "w/o Curr. Lear.", func(c core.Config) core.Config { c.UseCurriculum = false; return c }, false},
}

// runFig8 reproduces the ablation study: retrain IR-Fusion with each
// technique removed and report the MAE increase and F1 decrease
// ratios relative to the full model.
func runFig8(e *env_, outDir string) error {
	var tab table
	tab.row("variant", "mae_1e-4V", "f1", "mae_increase_pct", "f1_decrease_pct")

	var fullRep metrics.Report
	var maes []float64
	log.Printf("%-18s %10s %6s %10s %10s", "Variant", "MAE(1e-4V)", "F1", "ΔMAE(%)", "ΔF1(%)")
	for _, ab := range ablations {
		cfg := ab.mutate(e.baseConfig())
		cfg.ModelName = "irfusion"
		train, test := e.fullTrain, e.fullTest
		if ab.rebuildData {
			opts := cfg.DatasetOptions()
			var err error
			train, err = e.buildSamples(e.trainDesigns, opts)
			if err != nil {
				return err
			}
			test, err = e.buildSamples(e.testDesigns, opts)
			if err != nil {
				return err
			}
		}
		log.Printf("training %s...", ab.label)
		res, err := core.Train(e.ctx, cfg, train)
		if err != nil {
			return fmt.Errorf("%s: %w", ab.key, err)
		}
		avg := metrics.Average(res.Analyzer.Evaluate(e.ctx, test))
		maes = append(maes, avg.MAE)
		if ab.key == "full" {
			fullRep = avg
		}
		dMAE := 0.0
		dF1 := 0.0
		if fullRep.MAE > 0 {
			dMAE = (avg.MAE - fullRep.MAE) / fullRep.MAE * 100
		}
		if fullRep.F1 > 0 {
			dF1 = (fullRep.F1 - avg.F1) / fullRep.F1 * 100
		}
		log.Printf("%-18s %10.2f %6.2f %+10.1f %+10.1f", ab.label, avg.MAE*1e4, avg.F1, dMAE, dF1)
		tab.row(ab.label, fmt.Sprintf("%.3f", avg.MAE*1e4), fmt.Sprintf("%.3f", avg.F1),
			fmt.Sprintf("%.1f", dMAE), fmt.Sprintf("%.1f", dF1))
	}
	e.verdicts = append(e.verdicts, fig8Verdicts(maes)...)
	return tab.write(outDir, "fig8")
}
