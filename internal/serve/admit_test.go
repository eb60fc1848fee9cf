package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
)

// metricszCounters reads the counters /metricsz lists.
func metricszCounters(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	_, b := get(t, ts, "/metricsz")
	var mz struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &mz); err != nil {
		t.Fatal(err)
	}
	return mz.Counters
}

// admitCounts reads the server's admission-memo counters off /metricsz.
func admitCounts(t *testing.T, ts *httptest.Server) (hits, misses int64) {
	t.Helper()
	c := metricszCounters(t, ts)
	return c["serve.admit.hits"], c["serve.admit.misses"]
}

// sameAnswer fails unless got carries, bit for bit, the answer want
// does. The manifest and the runtime describe one run, never an answer.
func sameAnswer(t *testing.T, row string, got, want *AnalyzeResult) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", row)
	}
	g, w := *got, *want
	g.Map, g.Manifest, g.RuntimeSeconds, w.Map, w.Manifest, w.RuntimeSeconds = nil, nil, 0, nil, nil, 0
	gs, _ := json.Marshal(g)
	ws, _ := json.Marshal(w)
	if string(gs) != string(ws) || len(got.Map) != len(want.Map) {
		t.Fatalf("%s: summary %s (%d cells) differs from the fresh answer %s (%d cells)", row, gs, len(got.Map), ws, len(want.Map))
	}
	for i := range want.Map {
		if math.Float64bits(got.Map[i]) != math.Float64bits(want.Map[i]) {
			t.Fatalf("%s: map cell %d differs from the fresh answer", row, i)
		}
	}
}

// admittedFromMemo asserts what the manifest of a memo-admitted job
// says: its own admit counter and event, its own fingerprint, and
// whether the response memo then answered (the slow admission ran on
// the worker exactly when it did not).
func admittedFromMemo(t *testing.T, row string, m *obs.Manifest, fp any, responseHit bool) {
	t.Helper()
	if m == nil {
		t.Fatalf("%s: no manifest", row)
	}
	if m.Counters["serve.admit.hits"] != 1 || m.Counters["serve.admit.misses"] != 0 {
		t.Errorf("%s: admit counters %d hit / %d miss, want 1 / 0", row, m.Counters["serve.admit.hits"], m.Counters["serve.admit.misses"])
	}
	if oc := cacheOutcomes(t, m, "serve.admit"); oc[obs.CacheHit] != 1 || len(oc) != 1 {
		t.Errorf("%s: serve.admit events %v, want one hit", row, oc)
	}
	oc := cacheOutcomes(t, m, "serve.analyze")
	if responseHit && (oc[obs.CacheHit] != 1 || len(oc) != 1 || len(m.Solves) != 0) {
		t.Errorf("%s: serve.analyze events %v and %d solves, want one hit and no solve", row, oc, len(m.Solves))
	}
	if !responseHit && (oc[obs.CacheMiss] != 1 || oc[obs.CacheStore] != 1) {
		t.Errorf("%s: serve.analyze events %v, want miss+store", row, oc)
	}
	if cfg, _ := m.Config.(map[string]any); cfg["fingerprint"] != fp || fp == nil {
		t.Errorf("%s: manifest fingerprint %v, want %v", row, cfg["fingerprint"], fp)
	}
}

// TestAdmitOnceDifferential sends one 48 µm deck every way a repeat
// can arrive and holds each answer to the fresh server's, bit for bit.
// (The two-shard gateway row is cluster.TestGatewayAdmitOnce.)
func TestAdmitOnceDifferential(t *testing.T) {
	deck := genDeck(t, 48, 23)
	body := `{"spice": ` + mustJSON(deck) + `, "include_map": true}`

	_, tsFresh := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsFresh, "/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("fresh server: status %d: %s", code, b)
	}
	want := decodeJob(t, b).Result
	fp := want.Manifest.Config.(map[string]any)["fingerprint"]

	s, ts := newTestServer(t, Config{Workers: 2})
	code, b = post(t, ts, "/v1/analyze", body)
	first := decodeJob(t, b)
	if code != http.StatusOK {
		t.Fatalf("first submission: status %d: %s", code, b)
	}
	sameAnswer(t, "first submission", first.Result, want)
	if oc := cacheOutcomes(t, first.Result.Manifest, "serve.admit"); oc[obs.CacheMiss] != 1 || len(oc) != 1 {
		t.Errorf("first submission: serve.admit events %v, want one miss", oc)
	}
	if hits, misses := admitCounts(t, ts); hits != 0 || misses != 1 {
		t.Fatalf("after one submission: %d hits / %d misses", hits, misses)
	}

	// (2) the repeat.
	code, b = post(t, ts, "/v1/analyze", body)
	v := decodeJob(t, b)
	if code != http.StatusOK || v.ID == first.ID {
		t.Fatalf("repeat: status %d, job %q (first was %q)", code, v.ID, first.ID)
	}
	sameAnswer(t, "repeat", v.Result, want)
	admittedFromMemo(t, "repeat", v.Result.Manifest, fp, true)

	// (4) an async body twice; the second is the repeat.
	async := `{"spice": ` + mustJSON(deck) + `, "include_map": true, "async": true}`
	for i, row := range []string{"async first", "async repeat"} {
		code, b = post(t, ts, "/v1/analyze", async)
		if code != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202: %s", row, code, b)
		}
		v = waitStatus(t, ts, decodeJob(t, b).ID, func(st Status) bool { return st == StatusDone })
		sameAnswer(t, row, v.Result, want)
		if i == 1 {
			admittedFromMemo(t, row, v.Result.Manifest, fp, true)
		}
	}

	// (5) the repeat, handed off by a gateway.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderHandoffFrom, "shard9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("handed-off repeat: status %d, decode %v", resp.StatusCode, err)
	}
	sameAnswer(t, "handed-off repeat", v.Result, want)
	admittedFromMemo(t, "handed-off repeat", v.Result.Manifest, fp, true)
	if m := v.Result.Manifest; m.Counters["serve.handoff"] != 1 || m.Config.(map[string]any)["handoff_from"] != "shard9" {
		t.Errorf("handed-off repeat: manifest does not record the handoff: %v", m.Config)
	}

	// (7) the same network, cards in reverse order: other bytes, so the
	// memo misses, and the fingerprint finds the response all the same.
	cards := strings.Split(strings.TrimSuffix(strings.TrimSpace(deck), ".end"), "\n")
	for i, k := 0, len(cards)-1; i < k; i, k = i+1, k-1 {
		cards[i], cards[k] = cards[k], cards[i]
	}
	hitsBefore, missesBefore := admitCounts(t, ts)
	code, b = post(t, ts, "/v1/analyze", `{"spice": `+mustJSON(strings.Join(cards, "\n")+"\n.end\n")+`, "include_map": true}`)
	v = decodeJob(t, b)
	if code != http.StatusOK {
		t.Fatalf("reordered deck: status %d: %s", code, b)
	}
	sameAnswer(t, "reordered deck", v.Result, want)
	if hits, misses := admitCounts(t, ts); hits != hitsBefore || misses != missesBefore+1 {
		t.Errorf("reordered deck: admit counters moved %d hits / %d misses, want 0 / 1", hits-hitsBefore, misses-missesBefore)
	}
	if oc := cacheOutcomes(t, v.Result.Manifest, "serve.analyze"); oc[obs.CacheHit] != 1 {
		t.Errorf("reordered deck: serve.analyze events %v, want a hit through the fingerprint", oc)
	}
	if got := v.Result.Manifest.Config.(map[string]any)["fingerprint"]; got != fp {
		t.Errorf("reordered deck: fingerprint %v, want %v", got, fp)
	}

	// (3), last because it re-stores the response: the repeat after its
	// response entry went. Memo hit, response miss, so the worker builds
	// the design from the bytes and solves.
	j, _ := s.reg.get(first.ID)
	s.cache.Drop(responseKey(j))
	code, b = post(t, ts, "/v1/analyze", body)
	v = decodeJob(t, b)
	if code != http.StatusOK {
		t.Fatalf("repeat after drop: status %d: %s", code, b)
	}
	// The solve is a warm start at delta 0 off the system artifact, as
	// it is without the memo: same map, and for a residual PCG's
	// reading at iteration 0 (the true residual of the cached solution,
	// where a cold solve reports its recurrence's).
	if v.Result.Residual <= 0 || v.Result.Residual > cache.GuardTol {
		t.Errorf("repeat after drop: residual %g outside (0, %g]", v.Result.Residual, cache.GuardTol)
	}
	v.Result.Residual = want.Residual
	sameAnswer(t, "repeat after drop", v.Result, want)
	admittedFromMemo(t, "repeat after drop", v.Result.Manifest, fp, false)
}

// TestAdmitMemoSkipsFailures: only a successful admission is memoised.
// A bad deck is linted again on every submission and gets the same 400
// and issue list each time; an oversize body is 413 before any digest.
func TestAdmitMemoSkipsFailures(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
	bad := `{"spice": ` + mustJSON("v1 a 0 1.1\nr1 a b 2\nrbad b 0 1\nrfloat p q 3\ni1 b 0 0.01\n.end") + `, "resolution": 24}`
	var answers [2]string
	for i := range answers {
		code, b := post(t, ts, "/v1/analyze", bad)
		if code != http.StatusBadRequest || !strings.Contains(string(b), `"issues"`) {
			t.Fatalf("bad deck, submission %d: status %d: %s", i+1, code, b)
		}
		answers[i] = string(b)
	}
	if answers[0] != answers[1] {
		t.Errorf("the two rejections differ:\n%s\n%s", answers[0], answers[1])
	}
	if code, b := post(t, ts, "/v1/analyze", `{"spice": "`+strings.Repeat("* pad\\n", 1000)+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413: %s", code, b)
	}
	if hits, misses := admitCounts(t, ts); hits != 0 || misses != 2 {
		t.Errorf("admit counters %d hits / %d misses, want 0 / 2", hits, misses)
	}
}

// TestAdmitConcurrentSameBody posts one body from 16 goroutines at
// once: whichever of them find the memo filled, 16 jobs end done with
// one answer. Run under -race.
func TestAdmitConcurrentSameBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	body := `{"spice": ` + mustJSON(genDeck(t, 24, 5)) + `}`
	views := make([]JobView, 16)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, v, err := postJob(ts, body)
			if err != nil || code != http.StatusOK {
				t.Errorf("goroutine %d: status %d, err %v", i, code, err)
				return
			}
			views[i] = v
		}()
	}
	wg.Wait()
	ids := map[string]bool{}
	for i, v := range views {
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("job %d ended %q", i, v.Status)
		}
		ids[v.ID] = true
		if math.Float64bits(v.Result.MaxDropVolts) != math.Float64bits(views[0].Result.MaxDropVolts) {
			t.Errorf("job %d answered %g, job 0 %g", i, v.Result.MaxDropVolts, views[0].Result.MaxDropVolts)
		}
	}
	if hits, misses := admitCounts(t, ts); len(ids) != 16 || hits+misses != 16 {
		t.Errorf("%d distinct jobs, %d hits + %d misses, want 16 and 16", len(ids), hits, misses)
	}
}

// TestServeRecoversMemoAdmittedJob: the accepted record of a job
// admitted from the memo holds the client's bytes like any other, so a
// crash before the job starts loses nothing. The first submission parks
// the only worker; the second, of the same body, is admitted from the
// memo and is still queued, without a design, when the server dies.
func TestServeRecoversMemoAdmittedJob(t *testing.T) {
	_, tsCold := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsCold, "/v1/analyze", pgenBody(37, 32, `"include_map": true`))
	if code != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", code, b)
	}
	cold := decodeJob(t, b).Result.Map

	withGlobalFaults(t, parkAfterFirstCheckpoint)
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1.Handler())
	body := pgenBody(37, 32, `"async": true, "include_map": true`)
	var ids [2]string
	for i := range ids {
		if code, b = post(t, ts1, "/v1/analyze", body); code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d: %s", i+1, code, b)
		}
		ids[i] = decodeJob(t, b).ID
		if i == 0 {
			waitParked(t, s1, ids[0])
		}
	}
	if j, _ := s1.reg.get(ids[1]); !j.admitHit || j.design != nil || j.Status() != statusQueued {
		t.Fatalf("second submission: memo hit %t, design built %t, status %q", j.admitHit, j.design != nil, j.Status())
	}
	s1.crash()
	ts1.Close()
	faults.SetActive(nil)
	if recs := journalTypes(t, dir); recs["accepted"] != 2 {
		t.Fatalf("crashed journal holds %v, want two accepted records", recs)
	}

	recoveredBefore := obs.CounterValue("serve.recovered")
	_, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 2 {
		t.Fatalf("serve.recovered advanced by %d, want 2", got)
	}
	v := waitStatus(t, ts2, ids[1], func(st Status) bool { return st == StatusDone })
	if v.Result == nil || len(v.Result.Map) != len(cold) {
		t.Fatalf("recovered job has no map of the cold solve's size: %+v", v)
	}
	for i := range cold {
		if d := math.Abs(v.Result.Map[i] - cold[i]); d > 1e-9 {
			t.Fatalf("cell %d differs from the fresh solve by %g", i, d)
		}
	}
}
