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

// withGlobalFaults installs a process-global fault injector for one
// test and restores the previous one (the suite may itself be running
// under an IRFUSION_FAULTS chaos profile).
func withGlobalFaults(t *testing.T, spec string) {
	t.Helper()
	prev := faults.Active()
	faults.SetActive(faults.MustParse(spec))
	t.Cleanup(func() { faults.SetActive(prev) })
}

// TestServeDegradesOnAMGSetupFault is the headline acceptance path: an
// injected AMG setup failure must not fail the request — the ladder
// falls to SSOR-PCG, the response is a 200, and the manifest records
// which rung served.
func TestServeDegradesOnAMGSetupFault(t *testing.T) {
	withGlobalFaults(t, "amg.setup:fail")
	_, ts := newTestServer(t, Config{Workers: 1})
	code, b := post(t, ts, "/v1/analyze", pgenBody(21, 24, ""))
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 despite AMG fault: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != StatusDone {
		t.Fatalf("status %q, error %q", v.Status, v.Error)
	}
	m := v.Result.Manifest
	if m == nil {
		t.Fatal("no manifest")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if len(m.Degradations) != 1 {
		t.Fatalf("degradation records: %+v", m.Degradations)
	}
	deg := m.Degradations[0]
	if deg.Rung != plan.RungSSOR || deg.RungIndex != 1 || deg.Exhausted {
		t.Errorf("served by %q (index %d, exhausted %v), want %q at index 1",
			deg.Rung, deg.RungIndex, deg.Exhausted, plan.RungSSOR)
	}
	if !deg.Degraded() {
		t.Error("record does not report degradation")
	}
}

// TestServeLadderExhausted503: when every rung of the ladder fails the
// request must come back as a structured 503 with the Retry-After a
// full queue sends and the (exhausted) degradation trail in the
// manifest — never a panic, never a bare 500.
func TestServeLadderExhausted503(t *testing.T) {
	// precond=ssor with a budget gives the two-rung ladder
	// [numerical.ssor, numerical.randomwalk]; the labeled clauses kill
	// both (the walk honors only the "fail" action).
	withGlobalFaults(t,
		"solver.pcg:indefinite:label="+plan.RungSSOR+
			";solver.pcg:fail:label="+plan.RungRandomWalk)
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(pgenBody(22, 24, `"iters": 4, "precond": "ssor"`)))
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
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q, want %q", got, "1")
	}
	v := decodeJob(t, b)
	if v.Status != StatusFailed || v.ErrorKind != errKindExhausted {
		t.Fatalf("status %q kind %q, want failed/%s (error %q)", v.Status, v.ErrorKind, errKindExhausted, v.Error)
	}
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatal("exhausted job lost its manifest")
	}
	degs := v.Result.Manifest.Degradations
	if len(degs) != 1 || !degs[0].Exhausted || len(degs[0].Attempts) != 2 {
		t.Fatalf("degradation records: %+v", degs)
	}
}

// TestServeWorkerPanicRecovered: a panicking analysis earns exactly
// one requeue, so only a *repeated* panic costs the client a 500 —
// with the manifest attached, serve.panics bumped twice, and exactly
// one requeue recorded — and neither panic may kill the worker
// goroutine: the next request on the same single-worker server has to
// succeed.
func TestServeWorkerPanicRecovered(t *testing.T) {
	withGlobalFaults(t, "serve.worker:panic:times=2")
	_, ts := newTestServer(t, Config{Workers: 1})
	before := obs.GlobalCounters()["serve.panics"]
	beforeRq := obs.GlobalCounters()["serve.requeues"]

	code, b := post(t, ts, "/v1/analyze", pgenBody(24, 24, `"iters": 3, "precond": "ssor"`))
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != StatusFailed || v.ErrorKind != errKindPanic {
		t.Fatalf("status %q kind %q (error %q)", v.Status, v.ErrorKind, v.Error)
	}
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatal("panicked job lost its manifest")
	}
	if got := obs.GlobalCounters()["serve.panics"]; got != before+2 {
		t.Errorf("serve.panics %d, want %d (first panic requeues, second fails)", got, before+2)
	}
	if got := obs.GlobalCounters()["serve.requeues"]; got != beforeRq+1 {
		t.Errorf("serve.requeues %d, want %d (exactly one retry per job)", got, beforeRq+1)
	}
	// times=2: the injector is spent; the lone worker must still be
	// alive to serve this.
	code, b = post(t, ts, "/v1/analyze", pgenBody(25, 24, `"iters": 3, "precond": "ssor"`))
	if code != http.StatusOK {
		t.Fatalf("post-panic request status %d, want 200: %s", code, b)
	}
}

// TestServeWorkerPanicRequeuedOnce: a single injected panic must be
// invisible to the client — the job is requeued, the retry (injector
// spent) succeeds, and the response is a 200 with serve.requeues
// incremented. This is the regression test for the requeue-once path.
func TestServeWorkerPanicRequeuedOnce(t *testing.T) {
	withGlobalFaults(t, "serve.worker:panic:times=1")
	_, ts := newTestServer(t, Config{Workers: 1})
	beforePanics := obs.GlobalCounters()["serve.panics"]
	beforeRq := obs.GlobalCounters()["serve.requeues"]

	code, b := post(t, ts, "/v1/analyze", pgenBody(26, 24, `"iters": 3, "precond": "ssor"`))
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (panic should have been retried): %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != StatusDone {
		t.Fatalf("status %q, error %q", v.Status, v.Error)
	}
	if got := obs.GlobalCounters()["serve.panics"]; got != beforePanics+1 {
		t.Errorf("serve.panics %d, want %d", got, beforePanics+1)
	}
	if got := obs.GlobalCounters()["serve.requeues"]; got != beforeRq+1 {
		t.Errorf("serve.requeues %d, want %d", got, beforeRq+1)
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
// DELETE vs in-flight-completion race: Cancel's queued-check and
// finalize used to happen outside one critical section, so a worker
// could pick the job up in between — it would then run to completion
// while Cancel finalized the job as "cancelled before start", dropping
// the worker's result and manifest. Run under -race.
func TestCancelCompletionRaceKeepsResult(t *testing.T) {
	for i := 0; i < 500; i++ {
		j := &Job{status: StatusQueued, done: make(chan struct{}), cancel: func() {}}
		var ran atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the worker: markRunning then finalize with a result
			defer wg.Done()
			if j.markRunning() {
				ran.Store(true)
				j.finalize(StatusDone, "", &AnalyzeResult{Manifest: &obs.Manifest{Kind: "race"}})
			}
		}()
		go func() { // the DELETE handler
			defer wg.Done()
			j.Cancel()
		}()
		wg.Wait()
		v := j.Snapshot()
		if ran.Load() {
			if v.Result == nil || v.Result.Manifest == nil {
				t.Fatalf("iteration %d: worker ran but its result was dropped (status %q, error %q)",
					i, v.Status, v.Error)
			}
		} else if v.Status != StatusCancelled {
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
