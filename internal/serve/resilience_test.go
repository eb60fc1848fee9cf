package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/plan"
)

// withGlobalFaults arms rules process-wide for one test — the only way
// to reach a server's worker contexts, which descend from the server,
// not from the test — and disarms them when the test ends.
func withGlobalFaults(t *testing.T, rules ...faults.Rule) {
	t.Helper()
	faults.SetActive(faults.New(rules...))
	t.Cleanup(func() { faults.SetActive(nil) })
}

// TestServeLadderExhausted503: when the one cold rung of a request's
// ladder fails — AMG setup on a converged solve, an indefinite operator
// on a budgeted SSOR solve — the request must come back as a structured
// 503 with the exhausted one-attempt trail in the manifest and no
// Retry-After (the pipeline is deterministic: a retry fails the same
// way; a full queue's 503 keeps its Retry-After, TestQueueFullRejects)
// — never a 200 from a fallback, never a panic, never a bare 500.
func TestServeLadderExhausted503(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faults.Rule
		extra string
		rung  string
	}{
		{"converged", faults.Rule{Site: faults.SiteAMGSetup, Action: faults.ActFail}, "", plan.RungAMG},
		{"budgeted ssor", faults.Rule{Site: faults.SitePCG, Action: faults.ActIndefinite, Label: plan.RungSSOR},
			`"iters": 4, "precond": "ssor"`, plan.RungSSOR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withGlobalFaults(t, tc.fault)
			_, ts := newTestServer(t, Config{Workers: 1})
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(pgenBody(22, 24, tc.extra)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503: %s", resp.StatusCode, b)
			}
			if got, ok := resp.Header["Retry-After"]; ok {
				t.Errorf("Retry-After %q on an exhausted ladder, want none", got)
			}
			v := decodeJob(t, b)
			if v.Status != statusFailed || v.ErrorKind != ErrKindExhausted {
				t.Fatalf("status %q kind %q, want failed/%s (error %q)", v.Status, v.ErrorKind, ErrKindExhausted, v.Error)
			}
			if v.Result == nil || v.Result.Manifest == nil {
				t.Fatal("exhausted job lost its manifest")
			}
			m := v.Result.Manifest
			if err := m.Validate(); err != nil {
				t.Fatalf("manifest invalid: %v", err)
			}
			degs := m.Degradations
			if len(degs) != 1 || !degs[0].Exhausted || len(degs[0].Attempts) != 1 ||
				degs[0].Attempts[0].Rung != tc.rung || degs[0].Attempts[0].Error == "" {
				t.Fatalf("degradation records %+v, want one exhausted after a failed %s attempt", degs, tc.rung)
			}
		})
	}
}

// TestServeWorkerPanicRecovered: a job gets one attempt, so one
// panicking analysis costs the client a 500 — with the manifest
// attached and serve.panics bumped once — and the panic may not kill
// the worker goroutine: the next request on the same single-worker
// server has to succeed.
func TestServeWorkerPanicRecovered(t *testing.T) {
	withGlobalFaults(t, faults.Rule{Site: faults.SiteServeWorker, Action: faults.ActPanic, Times: 1})
	_, ts := newTestServer(t, Config{Workers: 1})
	before := obs.GlobalCounters()["serve.panics"]

	code, b := post(t, ts, "/v1/analyze", pgenBody(24, 24, `"iters": 3, "precond": "ssor"`))
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != statusFailed || v.ErrorKind != errKindPanic {
		t.Fatalf("status %q kind %q (error %q)", v.Status, v.ErrorKind, v.Error)
	}
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatal("panicked job lost its manifest")
	}
	if got := obs.GlobalCounters()["serve.panics"]; got != before+1 {
		t.Errorf("serve.panics %d, want %d (one panic, no retry)", got, before+1)
	}
	// Times: 1 — the injector is spent; the lone worker must still be
	// alive to serve this.
	code, b = post(t, ts, "/v1/analyze", pgenBody(25, 24, `"iters": 3, "precond": "ssor"`))
	if code != http.StatusOK {
		t.Fatalf("post-panic request status %d, want 200: %s", code, b)
	}
}

// TestServeDeckValidation400 verifies the pre-solve deck linter: a
// deck with a grounded resistor and a detached island must bounce with
// a 400 carrying the full machine-readable issue list, not surface
// mid-solve as a 500.
func TestServeDeckValidation400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	deck := "* bad deck\n" +
		"v1 a 0 1.1\n" +
		"r1 a b 2\n" +
		"rbad b 0 1\n" +
		"rfloat p q 3\n" +
		"i1 b 0 0.01\n" +
		".end"
	code, b := post(t, ts, "/v1/analyze", `{"spice": `+mustJSON(deck)+`, "resolution": 24}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, b)
	}
	var body struct {
		Error  string              `json:"error"`
		Issues []circuit.DeckIssue `json:"issues"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	codes := map[string]bool{}
	for _, is := range body.Issues {
		codes[is.Code] = true
	}
	for _, want := range []string{circuit.IssueGroundResistor, circuit.IssueFloatingNode} {
		if !codes[want] {
			t.Errorf("missing issue %s in %+v", want, body.Issues)
		}
	}
}

// TestCancelCompletionRaceKeepsResult is the regression test for the
// DELETE vs in-flight-completion race: abort's queued-check and
// finalize used to happen outside one critical section, so a worker
// could pick the job up in between — it would then run to completion
// while abort finalized the job as "cancelled before start", dropping
// the worker's result and manifest. Run under -race.
func TestCancelCompletionRaceKeepsResult(t *testing.T) {
	for i := 0; i < 500; i++ {
		j := &job{status: statusQueued, done: make(chan struct{}), cancel: func() {}}
		var ran atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the worker: markRunning then finalize with a result
			defer wg.Done()
			if j.markRunning() {
				ran.Store(true)
				j.finalizeKind(StatusDone, "", "", &AnalyzeResult{Manifest: &obs.Manifest{Kind: "race"}})
			}
		}()
		go func() { // the DELETE handler
			defer wg.Done()
			j.abort()
		}()
		wg.Wait()
		v := j.snapshot()
		if ran.Load() {
			if v.Result == nil || v.Result.Manifest == nil {
				t.Fatalf("iteration %d: worker ran but its result was dropped (status %q, error %q)",
					i, v.Status, v.Error)
			}
		} else if v.Status != statusCancelled {
			t.Fatalf("iteration %d: job neither ran nor cancelled: %q", i, v.Status)
		}
	}
}

// mustJSON renders a string as a JSON literal.
func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}
