package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/journal"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

// fusedRes is the die size and raster resolution of the fused tests.
const fusedRes = 24

// tinyAnalyzer trains the smallest fused pipeline that runs (two
// designs, one epoch).
func tinyAnalyzer(t *testing.T) *core.Analyzer {
	t.Helper()
	cfg := core.Default(fusedRes)
	cfg.Base, cfg.Depth, cfg.Epochs, cfg.UseAugmentation = 4, 2, 1, false
	set, err := dataset.GenerateSet(context.Background(), 1, 1, fusedRes, 70, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Train(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return res.Analyzer
}

func fusedBody(seed int64, extra string) string {
	return pgenBody(seed, fusedRes, `"mode": "fused", "include_map": true`+extra)
}

// fusedReference is the map a direct Analyzer.AnalyzeCtx call returns
// for the design pgenBody(seed, fusedRes, …) makes the server generate.
func fusedReference(t *testing.T, a *core.Analyzer, seed int64) []float64 {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("request", pgen.Fake, fusedRes, fusedRes, seed))
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := a.AnalyzeCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return m.Data
}

// mapsDiffer reports the first pixel where got and want disagree by
// more than 1e-9 V, or "" when they agree.
func mapsDiffer(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("map has %d pixels, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Sprintf("pixel %d: %v, direct AnalyzeCtx %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestFusedAnalyze is the passing path of fused serving, sync and
// async: the served map is the direct pipeline's map, and the manifest
// shows what a fused request pays for — the budgeted rough solve and
// one forward pass, no converged solve — and stores: the response,
// nothing else.
func TestFusedAnalyze(t *testing.T) {
	a := tinyAnalyzer(t)
	s, ts := newTestServer(t, Config{Analyzer: a})
	for i, async := range []bool{false, true} {
		seed := int64(11 + i)
		storesBefore := s.cache.Stats().Stores
		extra := ""
		if async {
			extra = `, "async": true`
		}
		code, b := post(t, ts, "/v1/analyze", fusedBody(seed, extra))
		v := decodeJob(t, b)
		if async {
			if code != http.StatusAccepted {
				t.Fatalf("async: status %d: %s", code, b)
			}
			v = waitStatus(t, ts, v.ID, Status.Terminal)
		} else if code != http.StatusOK {
			t.Fatalf("sync: status %d: %s", code, b)
		}
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("async=%t: status %q, error %q", async, v.Status, v.Error)
		}
		r := v.Result
		if r.Mode != ModeFused || r.Resolution != fusedRes {
			t.Errorf("async=%t: mode %q resolution %d, want fused/%d", async, r.Mode, r.Resolution, fusedRes)
		}
		if diff := mapsDiffer(r.Map, fusedReference(t, a, seed)); diff != "" {
			t.Errorf("async=%t: %s", async, diff)
		}

		m := r.Manifest
		if m == nil {
			t.Fatalf("async=%t: no manifest", async)
		}
		if cfg, _ := m.Config.(map[string]any); cfg["gemm_kernel"] != nn.Kernel() {
			t.Errorf("async=%t: manifest config gemm_kernel = %v, want %q beside mode and iters", async, cfg["gemm_kernel"], nn.Kernel())
		}
		stages := map[string]bool{}
		for _, st := range m.Stages {
			stages[st.Name] = true
		}
		for _, want := range []string{"dataset.rough_solve", "ml.inference"} {
			if !stages[want] {
				t.Errorf("async=%t: stage %q missing from the manifest", async, want)
			}
		}
		if stages["dataset.golden_solve"] {
			t.Errorf("async=%t: a fused request ran a golden solve", async)
		}
		for _, sv := range m.Solves {
			if sv.Iterations > a.Config.RoughIters {
				t.Errorf("async=%t: solve %q ran %d iterations, above the rough budget %d", async, sv.Label, sv.Iterations, a.Config.RoughIters)
			}
		}
		if got := s.cache.Stats().Stores - storesBefore; got != 1 {
			t.Errorf("async=%t: the job stored %d cache entries, want 1 (its memo entry)", async, got)
		}
	}
}

// TestFusedConcurrent keeps 16 fused requests over 4 decks in flight on
// 4 workers sharing one model. Every body is distinct (its own
// timeout_ms), so each misses the response memo, and fused mode reuses
// no artifact: every one of them runs inference. Each map must equal its deck's serial reference;
// under -race this is the end-to-end proof that the workers' forward
// passes share the model without writing to it.
func TestFusedConcurrent(t *testing.T) {
	a := tinyAnalyzer(t)
	_, ts := newTestServer(t, Config{Analyzer: a, Workers: 4, QueueDepth: 32})
	const decks, requests = 4, 16
	want := make([][]float64, decks)
	for i := range want {
		want[i] = fusedReference(t, a, int64(21+i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deck := i % decks
			code, v, err := postJob(ts, fusedBody(int64(21+deck), fmt.Sprintf(`, "timeout_ms": %d`, 60000+i)))
			switch {
			case err != nil:
				errs <- fmt.Errorf("request %d: %w", i, err)
			case code != http.StatusOK || v.Status != StatusDone || v.Result == nil:
				errs <- fmt.Errorf("request %d: http %d, status %q, error %q", i, code, v.Status, v.Error)
			case slices.ContainsFunc(v.Result.Manifest.Stages, func(st obs.StageRecord) bool { return st.Name == "serve.memo" }):
				errs <- fmt.Errorf("request %d: answered from the memo, not by inference", i)
			default:
				if diff := mapsDiffer(v.Result.Map, want[deck]); diff != "" {
					errs <- fmt.Errorf("request %d (deck %d): %s", i, deck, diff)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// postJob is post for goroutines other than the test's own: it returns
// errors instead of calling t.Fatal.
func postJob(ts *httptest.Server, body string) (int, JobView, error) {
	var v JobView
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v, err
}

// TestFusedNonFinitePredictionFails: a checkpoint with NaN in the
// head's bias predicts an all-NaN map. That is a failed job — a 500
// whose body is the job with core.ErrNonFinitePrediction's text, sync
// and async — not a 200 with the empty body encoding/json leaves when
// it refuses NaN after the status line; nothing reaches the response
// memo, the journal records the failure, and a healthy copy of the same
// analyzer answers the same bodies.
func TestFusedNonFinitePredictionFails(t *testing.T) {
	var ckpt bytes.Buffer
	if err := tinyAnalyzer(t).Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	load := func() *core.Analyzer {
		a, err := core.LoadAnalyzer(bytes.NewReader(ckpt.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	poisoned := load()
	params := poisoned.Model.Params()
	params[len(params)-1].Data[0] = math.NaN() // the head's bias

	dir := t.TempDir()
	s := New(Config{Analyzer: poisoned, JournalDir: dir})
	ts := httptest.NewServer(s.Handler())
	bodies := []string{fusedBody(31, ""), fusedBody(32, `, "async": true`)}
	for i, body := range bodies {
		code, b := post(t, ts, "/v1/analyze", body)
		if len(b) == 0 {
			t.Fatalf("body %d: status %d with an empty body", i, code)
		}
		v := decodeJob(t, b)
		if i == 1 {
			if code != http.StatusAccepted {
				t.Fatalf("async: status %d: %s", code, b)
			}
			v = waitStatus(t, ts, v.ID, Status.Terminal)
		} else if code != http.StatusInternalServerError {
			t.Errorf("sync: status %d, want 500: %s", code, b)
		}
		if v.Status != statusFailed || !strings.Contains(v.Error, core.ErrNonFinitePrediction.Error()) {
			t.Errorf("body %d: status %q, error %q; want failed with %q", i, v.Status, v.Error, core.ErrNonFinitePrediction)
		}
		if v.Result != nil && v.Result.Map != nil {
			t.Errorf("body %d: a failed job carries a map", i)
		}
	}
	if st := s.cache.Stats(); st.Stores != 0 {
		t.Errorf("%d cache stores, want none: a failed job is not memoised", st.Stores)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := journalTypes(t, dir)[journal.TypeFailed]; got != 2 {
		t.Errorf("journal holds %d failed records, want 2", got)
	}

	healthy := load()
	_, ts2 := newTestServer(t, Config{Analyzer: healthy})
	for i, body := range bodies {
		code, b := post(t, ts2, "/v1/analyze", strings.Replace(body, `, "async": true`, "", 1))
		v := decodeJob(t, b)
		if code != http.StatusOK || v.Status != StatusDone || v.Result == nil {
			t.Fatalf("healthy analyzer, body %d: status %d %q: %s", i, code, v.Status, v.Error)
		}
		if diff := mapsDiffer(v.Result.Map, fusedReference(t, healthy, int64(31+i))); diff != "" {
			t.Errorf("healthy analyzer, body %d: %s", i, diff)
		}
	}
}
