package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Add("x", 1)
	r.SetGauge("g", 1)
	r.RecordSolve(SolveRecord{Label: "x"})
	r.RecordEpoch(EpochRecord{})
	st := r.StartStage("stage")
	if st != nil {
		t.Fatal("nil recorder must hand out nil stages")
	}
	st.End() // must not panic
	m := r.Manifest("test", nil)
	if m.Schema != schemaVersion {
		t.Errorf("nil-recorder manifest schema %q", m.Schema)
	}
}

func TestGlobalCounterRegistry(t *testing.T) {
	c := GlobalCounter("test.registry.counter")
	if c != GlobalCounter("test.registry.counter") {
		t.Fatal("GlobalCounter not idempotent")
	}
	before := CounterValue("test.registry.counter")
	c.Add(3)
	c.Inc()
	if got := CounterValue("test.registry.counter"); got != before+4 {
		t.Errorf("counter = %d, want %d", got, before+4)
	}
	if CounterValue("test.registry.never-registered") != 0 {
		t.Error("unregistered counter must read 0")
	}
	if _, ok := GlobalCounters()["test.registry.counter"]; !ok {
		t.Error("snapshot missing registered counter")
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines;
// the CI race job is the real assertion.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	g := GlobalCounter("test.concurrent.global")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("hits", 1)
				r.SetGauge(fmt.Sprintf("gauge%d", w), float64(i))
				st := r.StartStage("stage")
				st.End()
				r.RecordSolve(SolveRecord{Label: "s", Iterations: i, History: []float64{1, 0.5}})
				r.RecordEpoch(EpochRecord{Epoch: i})
				g.Inc()
			}
		}(w)
	}
	wg.Wait()
	m := r.Manifest("test", nil)
	if m.Counters["hits"] != 1600 {
		t.Errorf("hits = %d, want 1600", m.Counters["hits"])
	}
	if len(m.Solves) != 1600 || len(m.Epochs) != 1600 {
		t.Errorf("solves/epochs = %d/%d, want 1600 each", len(m.Solves), len(m.Epochs))
	}
	if len(m.Stages) != 1 || m.Stages[0].Count != 1600 {
		t.Errorf("stage aggregation wrong: %+v", m.Stages)
	}
	// A manifest carries what its recorder counted; the process's
	// global counters never leak in.
	if _, ok := m.Counters["test.concurrent.global"]; ok {
		t.Errorf("global counter in a recorder's manifest: %v", m.Counters)
	}
}

func testManifest(t *testing.T) *Manifest {
	t.Helper()
	r := NewRecorder()
	GlobalCounter("test.manifest.global").Add(3)
	st := r.StartStage("solve")
	time.Sleep(2 * time.Millisecond)
	st.End()
	r.Add("designs", 2)
	r.SetGauge("amg.levels", 4)
	r.RecordSolve(SolveRecord{
		Label: "golden", Iterations: 3, Residual: 1e-11, Converged: true,
		Seconds: 0.01, History: []float64{1, 0.1, 1e-6, 1e-11},
	})
	r.RecordEpoch(EpochRecord{Epoch: 0, Loss: 1.5, LR: 1e-3, Samples: 8, Batches: 2, Seconds: 0.1})
	return r.Manifest("analyze", map[string]int{"iters": 3})
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest(t)
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh manifest invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped manifest invalid: %v", err)
	}
	if back.Kind != "analyze" || len(back.Solves) != 1 || len(back.Solves[0].History) != 4 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Counters["designs"] != 2 {
		t.Errorf("recorder counter lost: %v", back.Counters)
	}
	if _, ok := back.Counters["test.manifest.global"]; ok {
		t.Errorf("global counter in a recorder's manifest: %v", back.Counters)
	}
	if back.Epochs[0].Loss != 1.5 || back.Epochs[0].Batches != 2 {
		t.Errorf("epoch record lost: %+v", back.Epochs[0])
	}
}

// TestManifestSchemaStability pins the required top-level JSON keys.
// Renaming or removing any of these is a schema break and must bump
// schemaVersion (and this test).
func TestManifestSchemaStability(t *testing.T) {
	var buf bytes.Buffer
	if err := testManifest(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schema", "kind", "start_time", "wall_seconds", "host",
		"stages", "counters", "gauges", "solves", "epochs",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("manifest missing required key %q", key)
		}
	}
	if raw["schema"] != schemaVersion {
		t.Errorf("schema = %v", raw["schema"])
	}
	stage := raw["stages"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "count", "seconds"} {
		if _, ok := stage[key]; !ok {
			t.Errorf("stage record missing key %q", key)
		}
	}
	solve := raw["solves"].([]any)[0].(map[string]any)
	for _, key := range []string{"label", "iterations", "residual", "converged", "seconds", "history"} {
		if _, ok := solve[key]; !ok {
			t.Errorf("solve record missing key %q", key)
		}
	}
}

func TestValidateRejectsBrokenManifests(t *testing.T) {
	mut := map[string]func(*Manifest){
		"schema":   func(m *Manifest) { m.Schema = "bogus" },
		"kind":     func(m *Manifest) { m.Kind = "" },
		"stages":   func(m *Manifest) { m.Stages = nil },
		"wall":     func(m *Manifest) { m.WallSeconds = 0 },
		"counters": func(m *Manifest) { m.Counters = nil },
		"zero-time-stages": func(m *Manifest) {
			for i := range m.Stages {
				m.Stages[i].Seconds = 0
			}
		},
		// The two attempt-trail invariants: each differs from the
		// well-formed record below in one field.
		"attempt-missing-rung": func(m *Manifest) {
			m.Degradations[0].Attempts[0].Rung = ""
		},
		"serving-rung-not-in-trail": func(m *Manifest) {
			m.Degradations[0].Rung = "numerical.randomwalk"
		},
	}
	wellFormed := func() *Manifest {
		m := testManifest(t)
		m.Degradations = []Degradation{{Component: "core.numerical", Rung: "numerical.ssor", RungIndex: 1,
			Attempts: []DegradationAttempt{
				{Rung: "numerical.amg", Error: "boom"},
				{Rung: "numerical.ssor"},
			}}}
		return m
	}
	if err := wellFormed().Validate(); err != nil {
		t.Fatalf("well-formed degradation record rejected: %v", err)
	}
	// counters is a required key, but a run may count nothing of its own.
	empty := wellFormed()
	empty.Counters = map[string]int64{}
	if err := empty.Validate(); err != nil {
		t.Errorf("manifest with an empty counters map rejected: %v", err)
	}
	for name, f := range mut {
		m := wellFormed()
		f(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken manifest", name)
		}
	}
}

// TestDecodesParentDegradationRecord: a manifest written before the
// ladder lost its retries and breakers — attempt numbers, a backoff, a
// breaker skip — and before solves stopped resuming from checkpoints —
// a resume section, a stale cache event — still decodes and validates
// under the same schema.
func TestDecodesParentDegradationRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := testManifest(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["degradation"] = json.RawMessage(`[
	 {"component": "core.numerical", "rung": "numerical.amg", "rung_index": 0, "attempts": [
	  {"rung": "numerical.amg", "attempt": 1,
	   "error": "solver: numerical breakdown (non-finite value) (injected at iteration 0)",
	   "backoff_seconds": 0.00401165},
	  {"rung": "numerical.amg", "attempt": 2}]},
	 {"component": "core.numerical", "rung": "numerical.ssor", "rung_index": 1, "attempts": [
	  {"rung": "numerical.amg", "attempt": 0, "skipped": "breaker-open"},
	  {"rung": "numerical.ssor", "attempt": 1}]}]`)
	raw["resume"] = json.RawMessage(`{"from": "restart", "checkpoint_key": "ckpt|3f2a|precond=amg", "iter": 12, "residual": 0.0012, "outcome": "guard-rejected"}`)
	raw["cache"] = json.RawMessage(`{"events": [{"stage": "checkpoint.restore", "outcome": "stale", "key": "ckpt|3f2a"}], "hits": 0, "misses": 0, "warm_starts": 0, "stale": 1, "stores": 0}`)
	b, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("parent-format degradation record rejected: %v", err)
	}
	if m.Schema != schemaVersion || len(m.Degradations) != 2 {
		t.Fatalf("decoded %q with %d degradation records", m.Schema, len(m.Degradations))
	}
	if d := m.Degradations[0]; len(d.Attempts) != 2 || d.Attempts[0].Error == "" || !d.Degraded() {
		t.Errorf("retried record decoded as %+v", d)
	}
	if d := m.Degradations[1]; d.Rung != "numerical.ssor" || d.RungIndex != 1 || d.Attempts[0].Rung != "numerical.amg" {
		t.Errorf("breaker-skip record decoded as %+v", d)
	}
	if c := m.Cache; c == nil || len(c.Events) != 1 || c.Events[0].Outcome != cacheStale {
		t.Errorf("parent cache section decoded as %+v", m.Cache)
	}
}

func TestNonFiniteValuesSanitized(t *testing.T) {
	r := NewRecorder()
	st := r.StartStage("s")
	st.End()
	r.SetGauge("bad", math.Inf(1))
	r.RecordSolve(SolveRecord{Label: "d", Residual: math.NaN(), History: []float64{math.Inf(-1)}})
	r.RecordEpoch(EpochRecord{Loss: math.NaN()})
	var buf bytes.Buffer
	if err := r.Manifest("test", nil).Encode(&buf); err != nil {
		t.Fatalf("manifest with non-finite inputs must still encode: %v", err)
	}
}

func TestSinks(t *testing.T) {
	m := testManifest(t)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := DecodeManifest(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")); err == nil {
		t.Error("WriteFile must surface create errors")
	}
	if _, err := DecodeManifest(strings.NewReader("not json")); err == nil {
		t.Error("decoding garbage must fail")
	}
}

func TestSummary(t *testing.T) {
	s := testManifest(t).Summary()
	for _, want := range []string{"analyze", "solve", "golden", "designs=2", "training: 1 epochs"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestServeDebug(t *testing.T) {
	srv, addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "irfusion_counters") {
		t.Error("/debug/vars does not expose the global counters")
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
	if _, _, err := ServeDebug(addr); err == nil {
		t.Error("binding the same address twice must fail")
	}
}
