package main

import (
	"fmt"
	"log"

	"irfusion/internal/metrics"
)

// table1Order mirrors the row order of TABLE I in the paper.
var table1Order = []struct {
	key, label string
}{
	{"iredge", "IREDGe"},
	{"mavirec", "MAVIREC"},
	{"irpnet", "IRPnet"},
	{"pgau", "PGAU"},
	{"maunet", "MAUnet"},
	{"contestwinner", "Contest Winner"},
	{"irfusion", "IR-Fusion (Ours)"},
}

// runTable1 trains every model and prints the main-results table:
// MAE, F1, Runtime, MIRDE averaged over the real test designs.
func runTable1(e *env_, outDir string) error {
	var tab table
	tab.row("method", "mae_1e-4V", "f1", "runtime_s", "mirde_1e-4V", "cc")

	log.Printf("%-18s %10s %6s %10s %12s %6s", "Methods", "MAE(1e-4V)", "F1", "Runtime(s)", "MIRDE(1e-4V)", "CC")
	results := map[string]metrics.Report{}
	for _, row := range table1Order {
		a, err := e.trainModel(row.key)
		if err != nil {
			return fmt.Errorf("%s: %w", row.key, err)
		}
		avg := metrics.Average(a.Evaluate(e.ctx, e.testSetFor(row.key)))
		results[row.key] = avg
		log.Printf("%-18s %10.2f %6.2f %10.3f %12.2f %6.3f",
			row.label, avg.MAE*1e4, avg.F1, avg.Runtime, avg.MIRDE*1e4, avg.CC)
		tab.row(row.label, fmt.Sprintf("%.3f", avg.MAE*1e4), fmt.Sprintf("%.3f", avg.F1),
			fmt.Sprintf("%.4f", avg.Runtime), fmt.Sprintf("%.3f", avg.MIRDE*1e4), fmt.Sprintf("%.3f", avg.CC))
	}

	e.verdicts = append(e.verdicts, table1Verdicts(results)...)
	return tab.write(outDir, "table1")
}
