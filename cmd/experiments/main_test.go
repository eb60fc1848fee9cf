package main

import (
	"testing"

	"irfusion/internal/metrics"
)

func TestScaleFor(t *testing.T) {
	q := scaleFor("quick")
	f := scaleFor("full")
	if q.Res >= f.Res || q.Epochs >= f.Epochs || q.Fake >= f.Fake {
		t.Errorf("quick scale should be smaller than full: %+v vs %+v", q, f)
	}
	if f.Base%4 != 0 {
		t.Error("full Base must stay divisible by 4 for Inception")
	}
}

func TestIsBasicChannel(t *testing.T) {
	cases := map[string]bool{
		"current_m1":    true,
		"current":       true,
		"eff_dist":      true,
		"pdn_density":   true,
		"resistance":    false,
		"sp_resistance": false,
		"num_drop_m1":   false,
	}
	for name, want := range cases {
		if got := isBasicChannel(name); got != want {
			t.Errorf("isBasicChannel(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTable1OrderMatchesPaper(t *testing.T) {
	want := []string{"iredge", "mavirec", "irpnet", "pgau", "maunet", "contestwinner", "irfusion"}
	if len(table1Order) != len(want) {
		t.Fatalf("table rows = %d", len(table1Order))
	}
	for i, row := range table1Order {
		if row.key != want[i] {
			t.Errorf("row %d = %q, want %q", i, row.key, want[i])
		}
	}
}

func TestAblationListCoversFig8(t *testing.T) {
	keys := map[string]bool{}
	for _, ab := range ablations {
		keys[ab.key] = true
	}
	for _, want := range []string{"full", "no_num", "no_hier", "no_inception", "no_cbam", "no_aug", "no_curr"} {
		if !keys[want] {
			t.Errorf("missing ablation %q", want)
		}
	}
	if !ablations[1].rebuildData || !ablations[2].rebuildData {
		t.Error("feature-changing ablations must rebuild data")
	}
	if ablations[3].rebuildData {
		t.Error("architecture ablations must not rebuild data")
	}
}

func TestTableMarkdown(t *testing.T) {
	var tab table
	tab.row("method", "mae", "f1")
	tab.row("IREDGe", 17.392, "0.108")
	tab.row("IR-Fusion", "15.704", 0.186)
	want := "| method | mae | f1 |\n|---|---:|---:|\n| IREDGe | 17.392 | 0.108 |\n| IR-Fusion | 15.704 | 0.186 |\n"
	if got := tab.markdown(); got != want {
		t.Errorf("markdown:\n%s\nwant:\n%s", got, want)
	}
}

func TestLooksNumeric(t *testing.T) {
	for s, want := range map[string]bool{
		"1":     true,
		"-2.5":  true,
		"+3":    true,
		"1.2.3": false,
		"12e3":  true,
		"abc":   false,
		"":      false,
		"1-2":   false,
	} {
		if looksNumeric(s) != want {
			t.Errorf("looksNumeric(%q) = %v, want %v", s, !want, want)
		}
	}
}

// seed1Table1 is TABLE I of `-mode quick -seed 1` (MAE in V).
func seed1Table1() map[string]metrics.Report {
	return map[string]metrics.Report{
		"iredge":        {MAE: 42.933e-4, F1: 0, CC: 0.370},
		"mavirec":       {MAE: 46.956e-4, F1: 0, CC: 0.222},
		"irpnet":        {MAE: 52.661e-4, F1: 0, CC: -0.018},
		"pgau":          {MAE: 43.620e-4, F1: 0.211, CC: 0.380},
		"maunet":        {MAE: 17.621e-4, F1: 0.118, CC: 0.850},
		"contestwinner": {MAE: 52.617e-4, F1: 0, CC: -0.073},
		"irfusion":      {MAE: 4.979e-4, F1: 0.708, CC: 0.992},
	}
}

func gatedFailures(rows []verdict) int {
	n := 0
	for _, v := range rows {
		if v.gated && !v.ok {
			n++
		}
	}
	return n
}

func TestGatePassesTable1AndReportsDegenerateBaselines(t *testing.T) {
	rows := table1Verdicts(seed1Table1())
	if n := gatedFailures(rows); n != 0 {
		t.Errorf("%d gated rows failed on seed-1 numbers: %+v", n, rows)
	}
	if cc := rows[2]; cc.gated || cc.ok {
		t.Errorf("degenerate-baseline row = %+v, want reported and failing", cc)
	}
}

// TestGateFailsOnSwappedRows swaps IR-Fusion with the best baseline
// (MAUnet): both gated Table-I claims must fail, and with them the run.
func TestGateFailsOnSwappedRows(t *testing.T) {
	results := seed1Table1()
	results["irfusion"], results["maunet"] = results["maunet"], results["irfusion"]
	rows := table1Verdicts(results)
	if n := gatedFailures(rows); n != 2 {
		t.Errorf("%d gated rows failed on swapped rows, want 2: %+v", n, rows)
	}
	failed, err := judge(rows, t.TempDir())
	if err != nil || failed != 2 {
		t.Errorf("judge = %d, %v; want 2 failed gated rows", failed, err)
	}
}

// TestFig8GateNamesNoNum uses Fig 8 of `-mode quick -seed 1` (MAE in
// 1e-4 V, in ablations order), then makes w/o CBAM the worst.
func TestFig8GateNamesNoNum(t *testing.T) {
	mae := []float64{4.979, 13.865, 4.643, 3.122, 5.119, 5.721, 6.442}
	if rows := fig8Verdicts(mae); gatedFailures(rows) != 0 {
		t.Errorf("no_num worst must pass: %+v", rows)
	}
	mae[4] = 20
	if rows := fig8Verdicts(mae); gatedFailures(rows) != 1 {
		t.Errorf("no_num not worst must fail: %+v", rows)
	}
}

// TestFig7RowsAreReported feeds Fig 7 of `-mode quick -seed 3`
// (numerical, fused MAE in 1e-4 V): fused MAE bottoms out at k = 4 and
// rises, and the numerical solve is ahead from k = 4. Both rows read
// fail and neither is gated.
func TestFig7RowsAreReported(t *testing.T) {
	curve := []fig7Point{{15.342, 9.400}, {12.393, 7.651}, {9.243, 7.101}, {6.033, 6.831}, {3.531, 6.944},
		{2.262, 7.065}, {1.157, 7.251}, {0.685, 7.364}, {0.421, 7.473}, {0.299, 7.529}}
	rows := fig7Verdicts(curve)
	if len(rows) != 2 || gatedFailures(rows) != 0 || rows[0].ok || rows[1].ok {
		t.Errorf("fig 7 rows = %+v, want two reported failures", rows)
	}
	if want := "first rise at k = 5 (0: none)"; rows[0].detail != want {
		t.Errorf("monotone row detail %q, want %q", rows[0].detail, want)
	}
	if want := "numerical first ahead at k = 4 (0: never)"; rows[1].detail != want {
		t.Errorf("fusion-ahead row detail %q, want %q", rows[1].detail, want)
	}
	if rows := fig7Verdicts(curve[:3]); !rows[0].ok || !rows[1].ok {
		t.Errorf("k = 1..3, falling and below numerical, must pass: %+v", rows)
	}
}

// TestOverrideRejectsOneRealAndNegatives: -real 1 used to be ignored
// silently (the run kept the mode's 2 + 2), and negative counts were
// ignored too.
func TestOverrideRejectsOneRealAndNegatives(t *testing.T) {
	q := scaleFor("quick")
	for _, c := range [][4]int{{0, 1, 0, 0}, {-1, 0, 0, 0}, {0, -2, 0, 0}, {0, 0, -32, 0}, {0, 0, 0, -1}} {
		if _, err := q.override(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("override%v accepted", c)
		}
	}
	sc, err := q.override(3, 5, 24, 2)
	if err != nil || sc.Fake != 3 || sc.RealTrain != 2 || sc.RealTest != 3 || sc.Res != 24 || sc.Epochs != 2 {
		t.Errorf("override(3, 5, 24, 2) = %+v, %v", sc, err)
	}
	if sc, err := q.override(0, 0, 0, 0); err != nil || sc != q {
		t.Errorf("zero overrides changed the scale: %+v, %v", sc, err)
	}
}
