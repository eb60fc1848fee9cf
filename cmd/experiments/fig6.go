package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"irfusion/internal/grid"
	"irfusion/internal/metrics"
)

// runFig6 reproduces the visual comparison of Fig 6: the golden IR
// drop map of one held-out real design next to the MAUnet and
// IR-Fusion predictions, dumped as PGM images plus terminal heatmaps.
func runFig6(e *env_, outDir string) error {
	maunet, err := e.trainModel("maunet")
	if err != nil {
		return err
	}
	ours, err := e.trainModel("irfusion")
	if err != nil {
		return err
	}
	idx := 0
	golden := e.fullTest[idx].Golden
	predM := maunet.PredictCtx(e.ctx, e.basicTest[idx])
	predF := ours.PredictCtx(e.ctx, e.fullTest[idx])

	dump := func(name string, m *grid.Map) error {
		if err := os.WriteFile(filepath.Join(outDir, "fig6_"+name+".pgm"), []byte(m.PGM()), 0o644); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(outDir, "fig6_"+name+".ppm"), []byte(m.PPM()), 0o644)
	}
	for name, m := range map[string]*grid.Map{
		"golden":       golden,
		"maunet":       predM,
		"irfusion":     predF,
		"maunet_err":   grid.DiffMap(predM, golden),
		"irfusion_err": grid.DiffMap(predF, golden),
	} {
		if err := dump(name, m); err != nil {
			return err
		}
	}

	log.Printf("design %s (max drop %.3g V):", e.testDesigns[idx].Name, golden.Max())
	log.Printf("(a) Golden\n%s", golden.ASCII(48))
	log.Printf("(b) MAUnet   MAE=%.3g  F1=%.2f\n%s",
		metrics.MAE(predM, golden), metrics.F1(predM, golden), predM.ASCII(48))
	log.Printf("(c) IR-Fusion  MAE=%.3g  F1=%.2f\n%s",
		metrics.MAE(predF, golden), metrics.F1(predF, golden), predF.ASCII(48))

	var tab table
	tab.row("method", "mae_1e-4V", "f1", "mirde_1e-4V")
	for name, p := range map[string]*grid.Map{"maunet": predM, "irfusion": predF} {
		tab.row(name, fmt.Sprintf("%.3f", metrics.MAE(p, golden)*1e4),
			fmt.Sprintf("%.3f", metrics.F1(p, golden)),
			fmt.Sprintf("%.3f", metrics.MIRDE(p, golden)*1e4))
	}
	return tab.write(outDir, "fig6_metrics")
}
