package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"irfusion/internal/nn"
)

// newTestServer boots a service plus an httptest front end and tears
// both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// pgenBody returns an analyze request for a small generated design.
func pgenBody(seed int64, size int, extra string) string {
	s := fmt.Sprintf(`{"pgen": {"class": "fake", "w": %d, "h": %d, "seed": %d}`, size, size, seed)
	if extra != "" {
		s += ", " + extra
	}
	return s + "}"
}

// post POSTs a JSON body to path and returns status plus decoded body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func del(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func decodeJob(t *testing.T, b []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decode job view: %v\nbody: %s", err, b)
	}
	return v
}

// waitStatus polls a job until pred accepts its status and returns
// that view. It fails fast — with the job's actual state and error —
// when the job reaches a terminal status the predicate rejects, since
// no amount of further polling can change a terminal job.
func waitStatus(t *testing.T, ts *httptest.Server, id string, pred func(Status) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, b := get(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, code, b)
		}
		v := decodeJob(t, b)
		if pred(v.Status) {
			return v
		}
		if v.Status.Terminal() {
			t.Fatalf("job %s reached terminal status %q (error %q) before the wanted state", id, v.Status, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach wanted status in time", id)
	return JobView{}
}

func TestAnalyzeSyncNumerical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, b := post(t, ts, "/v1/analyze", pgenBody(1, 32, ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != StatusDone {
		t.Fatalf("status %q, error %q", v.Status, v.Error)
	}
	r := v.Result
	if r == nil {
		t.Fatal("no result")
	}
	if r.Mode != ModeNumerical || r.Resolution != 32 {
		t.Errorf("mode %q resolution %d, want numerical/32", r.Mode, r.Resolution)
	}
	if r.MaxDropVolts <= 0 || r.MeanDropVolts <= 0 || r.MeanDropVolts > r.MaxDropVolts {
		t.Errorf("implausible drop stats: max %g mean %g", r.MaxDropVolts, r.MeanDropVolts)
	}
	if r.Residual > 1e-9 {
		t.Errorf("converged solve residual %g", r.Residual)
	}
	if r.Map != nil {
		t.Errorf("map returned without include_map")
	}
	if r.Manifest == nil {
		t.Fatal("no manifest attached")
	}
	if err := r.Manifest.Validate(); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}
	// The solve ran on the degradation ladder: the manifest must carry
	// at least one numerical-rung solve and exactly one degradation
	// record naming the rung that served.
	if len(r.Manifest.Solves) == 0 {
		t.Fatal("no solves in manifest")
	}
	last := r.Manifest.Solves[len(r.Manifest.Solves)-1]
	if !strings.HasPrefix(last.Label, "numerical.") {
		t.Errorf("final solve label %q, want a numerical rung", last.Label)
	}
	if len(r.Manifest.Degradations) != 1 || r.Manifest.Degradations[0].Rung != last.Label {
		t.Errorf("degradation records = %+v, want one serving rung %q", r.Manifest.Degradations, last.Label)
	}
	if r.Manifest.Counters["serve.job"] != 1 {
		t.Errorf("serve.job counter = %d, want 1", r.Manifest.Counters["serve.job"])
	}
}

func TestAnalyzeSyncSpiceDeck(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	deck := genDeck(t, 24, 7)
	body, err := json.Marshal(AnalyzeRequest{Spice: deck, Iters: 4, Precond: "ssor", IncludeMap: true})
	if err != nil {
		t.Fatal(err)
	}
	code, b := post(t, ts, "/v1/analyze", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != StatusDone {
		t.Fatalf("status %q, error %q", v.Status, v.Error)
	}
	if v.Result.Resolution != 24 {
		t.Errorf("inferred resolution %d, want 24", v.Result.Resolution)
	}
	if got := len(v.Result.Map); got != 24*24 {
		t.Errorf("map length %d, want %d", got, 24*24)
	}
	// A 4-iteration budgeted solve must report exactly 4 iterations.
	if n := v.Result.Manifest.Solves[0].Iterations; n != 4 {
		t.Errorf("budgeted solve ran %d iterations, want 4", n)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxDesignSize: 64})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"pgen": `},
		{"unknown field", `{"pgen": {"w": 24, "h": 24}, "bogus": 1}`},
		{"trailing bytes", pgenBody(1, 24, "") + " trailing-garbage"},
		{"two objects", pgenBody(1, 24, "") + pgenBody(2, 24, "")},
		{"neither source", `{"mode": "numerical"}`},
		{"both sources", `{"spice": "r1 a 0 1\n.end", "pgen": {"w": 24, "h": 24}}`},
		{"bad mode", pgenBody(1, 24, `"mode": "quantum"`)},
		{"fused without model", pgenBody(1, 24, `"mode": "fused"`)},
		{"bad precond", pgenBody(1, 24, `"precond": "ilu"`)},
		{"retired precision field", pgenBody(1, 24, `"precision": "full"`)},
		{"retired format field", pgenBody(1, 24, `"format": "auto"`)},
		{"retired format field, forced", pgenBody(1, 24, `"format": "sell"`)},
		{"negative iters", pgenBody(1, 24, `"iters": -1`)},
		{"huge iters", pgenBody(1, 24, fmt.Sprintf(`"iters": %d`, maxIters+1))},
		{"negative timeout", pgenBody(1, 24, `"timeout_ms": -5`)},
		{"overflowing timeout", pgenBody(1, 24, `"timeout_ms": 10000000000000`)},
		{"die too large", pgenBody(1, 128, "")},
		{"resolution too large", pgenBody(1, 24, `"resolution": 1024`)},
		{"zero die", `{"pgen": {"w": 0, "h": 0}}`},
		{"bad spice", `{"spice": "r1 a\n"}`},
		{"empty spice deck", `{"spice": "* empty\n.end"}`},
		{"spice without coordinates", `{"spice": "rx a b 1\nv1 a 0 1\ni1 b 0 0.1\n.end"}`},
		{"capacitor-only node", spiceBody(capOnlyDecks["two-terminal"], "")},
		{"capacitor-only node, grounded decap", spiceBody(capOnlyDecks["grounded"], "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := post(t, ts, "/v1/analyze", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", code, b)
			}
		})
	}
}

func TestAnalyzeBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})
	big := pgenBody(1, 24, `"spare": "`+strings.Repeat("x", 2048)+`"`)
	code, b := post(t, ts, "/v1/analyze", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", code, b)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, b := post(t, ts, "/v1/analyze", pgenBody(3, 24, `"async": true, "iters": 3, "precond": "ssor"`))
	if code != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.ID == "" {
		t.Fatal("no job id")
	}
	final := waitStatus(t, ts, v.ID, Status.Terminal)
	if final.Status != StatusDone {
		t.Fatalf("final status %q, error %q", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.MaxDropVolts <= 0 {
		t.Errorf("missing or empty result: %+v", final.Result)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("missing timestamps: %+v", final)
	}

	if code, _ := get(t, ts, "/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", code)
	}
	if code, _ := del(t, ts, "/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job delete status %d, want 404", code)
	}
}

// slowBody returns a request whose budgeted SSOR solve runs long
// enough (seconds of wall clock, thousands of iterations) to observe
// and then cancel. The 128×128 die is the lever: budgeted solves on
// miniature grids converge past machine precision in milliseconds, so
// only per-iteration cost — matrix size — buys a reliable window in
// which the job is observably running.
func slowBody(seed int64) string {
	return pgenBody(seed, 128, fmt.Sprintf(`"async": true, "iters": %d, "precond": "ssor"`, maxIters))
}

func TestCancelStopsSolveMidIteration(t *testing.T) {
	// The solve parks at its third PCG iteration, so the cancellation
	// demonstrably lands mid-solve, not before the loop starts.
	withGlobalFaults(t, parkMidSolve)
	_, ts := newTestServer(t, Config{Workers: 1})
	code, b := post(t, ts, "/v1/analyze", pgenBody(5, 64, `"async": true`))
	if code != http.StatusAccepted {
		t.Fatalf("status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitStalled(t, 1)

	code, b = del(t, ts, "/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", code, b)
	}
	final := waitStatus(t, ts, id, Status.Terminal)
	if final.Status != statusCancelled {
		t.Fatalf("status %q, want cancelled (error %q)", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.Manifest == nil {
		t.Fatal("cancelled job has no manifest")
	}
	solves := final.Result.Manifest.Solves
	if len(solves) != 1 {
		t.Fatalf("manifest solves = %+v, want exactly one", solves)
	}
	// Early return at the parked iteration, with a partial residual
	// history recorded up to the cancellation point.
	if solves[0].Iterations != 2 {
		t.Errorf("cancelled solve ran %d iterations, want the 2 before its parked iteration", solves[0].Iterations)
	}
	h := solves[0].History
	if len(h) == 0 || len(h) > maxIters {
		t.Errorf("partial history length %d", len(h))
	}
	if !strings.Contains(final.Error, "cancelled") {
		t.Errorf("error %q does not mention cancellation", final.Error)
	}
}

func TestTimeoutFailsSolveWithPartialManifest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// The deadline must fall after assembly (which race-instrumented
	// builds stretch past 80ms) but well before the budgeted solve
	// finishes — the 128×128 die buys seconds of solve time.
	body := pgenBody(6, 128, fmt.Sprintf(`"iters": %d, "precond": "ssor", "timeout_ms": 400`, maxIters))
	code, b := post(t, ts, "/v1/analyze", body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != statusFailed {
		t.Fatalf("status %q, want failed", v.Status)
	}
	if v.Result == nil || v.Result.Manifest == nil || len(v.Result.Manifest.Solves) != 1 {
		t.Fatalf("timed-out job missing partial manifest: %+v", v.Result)
	}
	if n := v.Result.Manifest.Solves[0].Iterations; n <= 0 || n >= maxIters {
		t.Errorf("timed-out solve ran %d iterations, want mid-solve stop", n)
	}
}

func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Fill the single worker...
	code, b := post(t, ts, "/v1/analyze", slowBody(7))
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", code, b)
	}
	id1 := decodeJob(t, b).ID
	waitStatus(t, ts, id1, func(s Status) bool { return s == statusRunning })
	// ...then the single queue slot...
	code, b = post(t, ts, "/v1/analyze", slowBody(8))
	if code != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", code, b)
	}
	id2 := decodeJob(t, b).ID
	// ...and the next submission must bounce, with a retry hint.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(slowBody(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job 3: status %d, want 503: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("queue-full Retry-After %q, want %q", got, "1")
	}
	for _, id := range []string{id1, id2} {
		del(t, ts, "/v1/jobs/"+id)
		waitStatus(t, ts, id, Status.Terminal)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	code, b := post(t, ts, "/v1/analyze", slowBody(10))
	if code != http.StatusAccepted {
		t.Fatalf("status %d: %s", code, b)
	}
	id1 := decodeJob(t, b).ID
	waitStatus(t, ts, id1, func(s Status) bool { return s == statusRunning })

	code, b = post(t, ts, "/v1/analyze", slowBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("status %d: %s", code, b)
	}
	id2 := decodeJob(t, b).ID
	code, b = del(t, ts, "/v1/jobs/"+id2)
	if code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", code, b)
	}
	v := decodeJob(t, b)
	if v.Status != statusCancelled {
		t.Fatalf("queued cancel status %q, want cancelled immediately", v.Status)
	}
	if v.StartedAt != nil {
		t.Errorf("cancelled-while-queued job reports a start time")
	}
	del(t, ts, "/v1/jobs/"+id1)
	waitStatus(t, ts, id1, Status.Terminal)
}

func TestHealthzAndMetricsz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 5})
	code, b := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", code, b)
	}
	var h map[string]any
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("healthz status %v", h["status"])
	}
	if h["workers"].(float64) != 3 || h["queue_cap"].(float64) != 5 {
		t.Errorf("healthz sizing wrong: %v", h)
	}
	if h["gemm_kernel"] != nn.Kernel() {
		t.Errorf("healthz gemm_kernel = %v, the process multiplies with %q", h["gemm_kernel"], nn.Kernel())
	}
	// No worker pool, and no solve-backend breakers: a shard's ladder
	// tries each rung once per request.
	for _, gone := range []string{"pool_workers", "pool_min_work", "breakers"} {
		if _, ok := h[gone]; ok {
			t.Errorf("healthz still reports %s", gone)
		}
	}

	// Run one job so serve counters are non-zero.
	if code, b := post(t, ts, "/v1/analyze", pgenBody(2, 24, `"iters": 2, "precond": "ssor"`)); code != http.StatusOK {
		t.Fatalf("analyze: %d: %s", code, b)
	}
	code, b = get(t, ts, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz status %d: %s", code, b)
	}
	var m struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Breakers json.RawMessage    `json:"breakers"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["serve.jobs.submitted"] < 1 || m.Counters["serve.jobs.done"] < 1 {
		t.Errorf("serve counters missing: %v", m.Counters)
	}
	if m.Gauges["serve.workers"] != 3 {
		t.Errorf("serve.workers gauge = %v", m.Gauges["serve.workers"])
	}
	if m.Breakers != nil {
		t.Errorf("metricsz still reports breakers: %s", m.Breakers)
	}
	_ = s
}

func TestGracefulCloseDrainsInFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := post(t, ts, "/v1/analyze", pgenBody(12, 24, `"async": true, "iters": 50, "precond": "ssor"`))
	if code != http.StatusAccepted {
		t.Fatalf("status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitStatus(t, ts, id, func(st Status) bool { return st == statusRunning || st.Terminal() })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The in-flight job completed during the drain.
	j, ok := s.reg.get(id)
	if !ok {
		t.Fatal("job evicted during drain")
	}
	if got := j.Status(); got != StatusDone {
		t.Errorf("drained job status %q, want done", got)
	}
	// New submissions bounce and health reports draining.
	code, b = post(t, ts, "/v1/analyze", pgenBody(13, 24, ""))
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status %d, want 503: %s", code, b)
	}
	code, b = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz status %d, want 503: %s", code, b)
	}
	if !bytes.Contains(b, []byte("draining")) {
		t.Errorf("healthz body %s does not report draining", b)
	}
	// Closing again is idempotent.
	if err := s.Close(ctx); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestForcedCloseCancelsInFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, b := post(t, ts, "/v1/analyze", slowBody(14))
	if code != http.StatusAccepted {
		t.Fatalf("status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitStatus(t, ts, id, func(st Status) bool { return st == statusRunning })

	// A context that is already expired forces immediate cancellation
	// of the in-flight solve; Close must still wait for the worker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Close(ctx); err == nil {
		t.Fatal("forced Close returned nil, want context error")
	}
	j, _ := s.reg.get(id)
	if j == nil {
		t.Fatal("job missing")
	}
	st := j.Status()
	if !st.Terminal() {
		t.Fatalf("job still %q after forced close", st)
	}
	if st == StatusDone {
		t.Fatalf("slow job completed despite forced cancellation")
	}
}
