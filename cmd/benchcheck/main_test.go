package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"BenchmarkAblationAggregation/single-2  2  466774 ns/op  2.439 op-complexity  352872 B/op  83 allocs/op",
		"BenchmarkAMGApply-2  5  2100000 ns/op  251.0 apply-µs  29.00 iters  1024 B/op  3 allocs/op",
		"BenchmarkParallelConvForward/w4-2  3  900 ns/op  0.5000 pool-util  2.000 par-kernels/op  0 B/op  0 allocs/op",
		"BenchmarkCacheECOLoop/hit-8   20   1414317 ns/op   988081 B/op   7737 allocs/op",
		"BenchmarkNoMem-2  10  55 ns/op",
		"PASS",
		"ok  	irfusion	1.2s",
	}, "\n")
	got := parseBench(out)
	want := map[string]Measure{
		"BenchmarkAblationAggregation/single": {NsPerOp: 466774, AllocsPerOp: 83, BytesPerOp: 352872},
		"BenchmarkAMGApply":                   {NsPerOp: 2100000, AllocsPerOp: 3, BytesPerOp: 1024},
		"BenchmarkParallelConvForward/w4":     {NsPerOp: 900},
		"BenchmarkCacheECOLoop/hit":           {NsPerOp: 1414317, AllocsPerOp: 7737, BytesPerOp: 988081},
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d rows, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s: got %+v (present %v), want %+v", name, g, ok, w)
		}
	}
}

func TestGate(t *testing.T) {
	base := Measure{NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1000}
	// Caps: ns 1000×2, allocs 100×1.25+64 = 189, bytes 1000×1.25 = 1250.
	tol := Tolerance{NsFactor: 2, AllocFactor: 1.25, AllocSlack: 64}
	ratio := []Ratio{{Name: "speedup", Numerator: "B/cold", Denominator: "B/hit", Min: 2}}
	for _, tc := range []struct {
		name     string
		baseline map[string]Measure
		measured map[string]Measure
		ratios   []Ratio
		want     []string // one substring per expected failure
	}{
		{name: "at every cap",
			baseline: map[string]Measure{"B": base},
			measured: map[string]Measure{"B": {NsPerOp: 2000, AllocsPerOp: 189, BytesPerOp: 1250}}},
		{name: "ns factor",
			baseline: map[string]Measure{"B": base},
			measured: map[string]Measure{"B": {NsPerOp: 2001, AllocsPerOp: 100, BytesPerOp: 1000}},
			want:     []string{"B: 2001 ns/op exceeds baseline 1000 × 2.00"}},
		{name: "alloc cap is factor plus slack",
			baseline: map[string]Measure{"B": base},
			measured: map[string]Measure{"B": {NsPerOp: 1000, AllocsPerOp: 190, BytesPerOp: 1000}},
			want:     []string{"B: 190 allocs/op exceeds baseline 100 (cap 189)"}},
		{name: "B/op cap",
			baseline: map[string]Measure{"B": base},
			measured: map[string]Measure{"B": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1251}},
			want:     []string{"B: 1251 B/op exceeds baseline 1000 (cap 1250)"}},
		{name: "B/op ungated without a recorded value",
			baseline: map[string]Measure{"B": {NsPerOp: 1000, AllocsPerOp: 100}},
			measured: map[string]Measure{"B": {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1 << 30}}},
		{name: "new row",
			baseline: map[string]Measure{"B": base},
			measured: map[string]Measure{"B": base, "C": base},
			want:     []string{"C: not in baseline"}},
		{name: "stale row",
			baseline: map[string]Measure{"B": base, "C": base},
			measured: map[string]Measure{"B": base},
			want:     []string{"C: in baseline but not produced"}},
		{name: "ratio at its minimum",
			baseline: map[string]Measure{"B/cold": base, "B/hit": base},
			measured: map[string]Measure{"B/cold": {NsPerOp: 1000}, "B/hit": {NsPerOp: 500}},
			ratios:   ratio},
		{name: "ratio below its minimum",
			baseline: map[string]Measure{"B/cold": base, "B/hit": base},
			measured: map[string]Measure{"B/cold": {NsPerOp: 1000}, "B/hit": {NsPerOp: 600}},
			ratios:   ratio,
			want:     []string{`ratio "speedup": B/cold/B/hit = 1.67 below minimum 2.00`}},
		{name: "ratio missing a side",
			baseline: map[string]Measure{"B/cold": base},
			measured: map[string]Measure{"B/cold": base},
			ratios:   ratio,
			want:     []string{`ratio "speedup": missing B/cold or B/hit`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bl := &Baseline{Tolerance: tol, Ratios: tc.ratios, Benchmarks: tc.baseline}
			got := gate(bl, tc.measured)
			if len(got) != len(tc.want) {
				t.Fatalf("failures %q, want %d matching %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("failure %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
