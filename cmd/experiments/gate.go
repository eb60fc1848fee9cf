package main

import (
	"fmt"
	"log"

	"irfusion/internal/metrics"
)

// verdict is one row of the paper gate: a claim of the paper judged on
// this run's numbers. A gated row that fails makes the command exit
// non-zero; a reported row is printed with its verdict and fails
// nothing. A claim's definition is fixed: a reported row becomes gated
// in the change that makes it pass, never by rewording it.
type verdict struct {
	claim  string
	gated  bool
	ok     bool
	detail string
}

// table1Verdicts judges TABLE I. Gated: IR-Fusion beats the best
// baseline on MAE and on F1. Reported: no baseline is degenerate
// (every one has CC ≥ 0.5).
func table1Verdicts(results map[string]metrics.Report) []verdict {
	ours := results["irfusion"]
	// The best-MAE, best-F1 and lowest-CC baselines: every row but the
	// last, IR-Fusion's.
	var mae, f1, cc string
	for _, row := range table1Order[:len(table1Order)-1] {
		r := results[row.key]
		if mae == "" || r.MAE < results[mae].MAE {
			mae = row.key
		}
		if f1 == "" || r.F1 > results[f1].F1 {
			f1 = row.key
		}
		if cc == "" || r.CC < results[cc].CC {
			cc = row.key
		}
	}
	return []verdict{
		{"Table I: IR-Fusion MAE below the best baseline's", true, ours.MAE < results[mae].MAE,
			fmt.Sprintf("%.3f vs %s %.3f (1e-4 V)", ours.MAE*1e4, mae, results[mae].MAE*1e4)},
		{"Table I: IR-Fusion F1 above the best baseline's", true, ours.F1 > results[f1].F1,
			fmt.Sprintf("%.3f vs %s %.3f", ours.F1, f1, results[f1].F1)},
		{"Table I: every baseline has CC >= 0.5", false, results[cc].CC >= 0.5,
			fmt.Sprintf("lowest %s %.3f", cc, results[cc].CC)},
	}
}

// fig7Verdicts judges the trade-off sweep, curve[k-1] holding budget
// k. Both rows are reported: fused MAE never rises along k, and fusion
// is no less accurate than the numerical solve at any k.
func fig7Verdicts(curve []fig7Point) []verdict {
	rise, behind := 0, 0 // the first k where each claim breaks; 0 = none
	for i, p := range curve {
		if rise == 0 && i > 0 && p.fusMAE > curve[i-1].fusMAE {
			rise = i + 1
		}
		if behind == 0 && p.fusMAE > p.numMAE {
			behind = i + 1
		}
	}
	return []verdict{
		{"Fig 7: fused MAE non-increasing along k", false, rise == 0,
			fmt.Sprintf("first rise at k = %d (0: none)", rise)},
		{"Fig 7: fused MAE <= numerical MAE at every k <= 10", false, behind == 0,
			fmt.Sprintf("numerical first ahead at k = %d (0: never)", behind)},
	}
}

// fig8Verdicts judges the ablation study, mae[i] holding the MAE of
// ablations[i]. Gated: removing the numerical solution costs the most
// MAE of every variant.
func fig8Verdicts(mae []float64) []verdict {
	worst := 0
	for i := range mae {
		if mae[i] > mae[worst] {
			worst = i
		}
	}
	return []verdict{
		{"Fig 8: w/o Num. Solu. is the worst ablation on MAE", true, ablations[worst].key == "no_num",
			fmt.Sprintf("worst %s %.3f (1e-4 V)", ablations[worst].label, mae[worst]*1e4)},
	}
}

// judge logs every verdict row and writes them as gate.csv and
// gate.md in outDir. It returns the number of gated rows that failed.
func judge(rows []verdict, outDir string) (int, error) {
	var tab table
	tab.row("claim", "kind", "verdict", "measured")
	failed := 0
	log.Printf("=== paper gate ===")
	for _, v := range rows {
		kind, word := "reported", "pass"
		if v.gated {
			kind = "gated"
		}
		if !v.ok {
			word = "fail"
			if v.gated {
				failed++
			}
		}
		log.Printf("%-4s %-8s %-52s %s", word, kind, v.claim, v.detail)
		tab.row(v.claim, kind, word, v.detail)
	}
	return failed, tab.write(outDir, "gate")
}
