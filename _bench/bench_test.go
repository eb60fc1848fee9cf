package main

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestInputsRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		a, err := buildInputs(w, 1, 2, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := buildInputs(w, 1, 2, true)
		c, _ := buildInputs(w, 2, 2, true)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 1 gave two different request lists", w.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
		if len(a.list) != quickList {
			t.Errorf("%s: list has %d requests, want %d", w.name, len(a.list), quickList)
		}
	}
}

func TestEcoInterleave(t *testing.T) {
	w, _ := findWorkload("eco_gateway")
	in, err := buildInputs(w, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	variants := 0
	for i, r := range in.list {
		switch r.class {
		case "eco":
			variants++
		case "repeat":
			// A repeat names a warm-up base or a variant at least ecoSettle back.
			sent := slices.ContainsFunc(in.warm, func(b request) bool { return bytes.Equal(b.body, r.body) })
			for j := 0; j <= i-ecoSettle && !sent; j++ {
				sent = in.list[j].class == "eco" && bytes.Equal(in.list[j].body, r.body)
			}
			if !sent {
				t.Errorf("request %d repeats a deck not sent at least %d positions earlier", i, ecoSettle)
			}
		default:
			t.Errorf("request %d has class %q", i, r.class)
		}
	}
	if want := len(in.list) * 3 / 10; variants != want {
		t.Errorf("%d variants in %d requests, want exactly %d", variants, len(in.list), want)
	}
}

func TestArrivals(t *testing.T) {
	a, b, c := arrivals(1, 50, 10), arrivals(1, 50, 10), arrivals(2, 50, 10)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 10*time.Second {
		t.Errorf("schedule not sorted inside the window: first %v last %v", a[0], a[len(a)-1])
	}
}

func TestPercentileAndLateness(t *testing.T) {
	v := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {90, 37}, {100, 40}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	// Due at 100 ms, sent at 130 ms because both connections were busy,
	// answered at 180 ms: the user waited 80 ms, the generator ran 30 ms late.
	s := sample{due: 100 * time.Millisecond, start: 130 * time.Millisecond, end: 180 * time.Millisecond}
	if s.latency() != 80*time.Millisecond || s.late() != 30*time.Millisecond {
		t.Errorf("latency %v late %v, want 80ms and 30ms", s.latency(), s.late())
	}
}

func TestPerSecond(t *testing.T) {
	ms := time.Millisecond
	counts := perSecond([]sample{
		{start: 100 * ms, end: 300 * ms},   // all in second 0
		{start: 900 * ms, end: 1100 * ms},  // half in second 0, half in second 1
		{start: 1500 * ms, end: 3500 * ms}, // a quarter in second 1, half in second 2, the rest past the window
	}, 3*time.Second)
	for k, want := range []float64{1.5, 0.75, 0.5} {
		if math.Abs(counts[k]-want) > 1e-12 {
			t.Errorf("second %d counts %v requests, want %v", k, counts[k], want)
		}
	}
	if n := len(perSecond(nil, 2500*ms)); n != 2 {
		t.Errorf("a 2.5 s window has %d whole seconds, want 2", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 50, End: 90},
		{ID: 3, Parent: 2, Start: 60, End: 70},
	}
	selfTimes(spans)
	for i, want := range []time.Duration{30, 30, 30, 10} {
		if spans[i].Self != want {
			t.Errorf("span %d self time %d, want %d", i, spans[i].Self, want)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: go run ./_bench -benchmark-json > BENCHMARK.json")
	}
}

func TestRefusesGuardedEnvironment(t *testing.T) {
	for _, v := range guardedEnv {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, "1")
			if code := run([]string{"-quick"}); code != 2 {
				t.Errorf("exit code %d with %s set, want 2", code, v)
			}
		})
	}
}

// TestQuickRunPassesAnswerChecks drives every workload end to end on
// tiny dies, the traced pass included for the one that has a trained
// model anyway; every answer check (against the sparse Cholesky
// reference at these sizes) runs.
func TestQuickRunPassesAnswerChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := w.mode == modeFused
			res, err := runWorkload(w, runOpts{seed: 1, seconds: 2, quick: true, setups: 1, traced: traced})
			if err != nil {
				t.Fatal(err)
			}
			// The race detector can slow the servers enough for the window
			// to close before the list ends, so the count is not pinned.
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d requests failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", d.Name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; traced && !ok {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
			if got := res.PerLayer["cluster.affinity_ratio"]; w.eco && got != 1 {
				t.Errorf("cluster.affinity_ratio = %v, want 1", got)
			}
		})
	}
}
