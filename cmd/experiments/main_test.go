package main

import "testing"

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
