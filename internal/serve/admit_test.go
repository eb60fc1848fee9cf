package serve

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
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

// answeredFromMemo asserts what the manifest of a memo-hit job says:
// one serve.analyze hit and nothing else, no solve, and the fingerprint
// of the admission the memo holds.
func answeredFromMemo(t *testing.T, row string, m *obs.Manifest, fp any) {
	t.Helper()
	if m == nil {
		t.Fatalf("%s: no manifest", row)
	}
	if oc := cacheOutcomes(t, m, "serve.analyze"); oc[obs.CacheHit] != 1 || len(oc) != 1 || len(m.Solves) != 0 {
		t.Errorf("%s: serve.analyze events %v and %d solves, want one hit and no solve", row, oc, len(m.Solves))
	}
	if cfg, _ := m.Config.(map[string]any); cfg["fingerprint"] != fp || fp == nil {
		t.Errorf("%s: manifest fingerprint %v, want %v", row, cfg["fingerprint"], fp)
	}
}

// warmAtDeltaZero asserts the answer to another body of an analysed
// design and request shape: the memo missed, the body was admitted in
// full (its own fingerprint is the design's), and the solve was a warm
// start at delta 0 off the stored system — the fresh map bit for bit,
// and for a residual PCG's reading at iteration 0 (the true residual of
// the cached solution, where a cold solve reports its recurrence's).
func warmAtDeltaZero(t *testing.T, row string, got, want *AnalyzeResult, fp any) {
	t.Helper()
	if oc := cacheOutcomes(t, got.Manifest, "serve.analyze"); oc[obs.CacheMiss] != 1 || oc[obs.CacheStore] != 1 || len(oc) != 2 {
		t.Errorf("%s: serve.analyze events %v, want miss+store", row, oc)
	}
	if cfg, _ := got.Manifest.Config.(map[string]any); cfg["fingerprint"] != fp {
		t.Errorf("%s: manifest fingerprint %v, want %v", row, cfg["fingerprint"], fp)
	}
	if d := got.Manifest.Degradations; len(d) != 1 || d[0].Rung != plan.RungAMGWarm {
		t.Errorf("%s: served by %+v, want the warm rung", row, d)
	}
	if got.Residual <= 0 || got.Residual > cache.GuardTol {
		t.Errorf("%s: residual %g outside (0, %g]", row, got.Residual, cache.GuardTol)
	}
	warm := *got
	warm.Residual = want.Residual
	sameAnswer(t, row, &warm, want)
}

// TestAdmitOnceDifferential sends one 48 µm deck every way a repeat
// can arrive and holds each answer to the fresh server's, bit for bit.
// A byte-identical body is answered from the memo with one cache
// lookup; any other body is admitted in full and solved as a fresh
// server solves it, warm-started at delta 0 when its unknowns are
// numbered as the stored system's. (The two-shard gateway row is
// cluster.TestGatewayAdmitOnce.)
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
	if oc := cacheOutcomes(t, first.Result.Manifest, "serve.analyze"); oc[obs.CacheMiss] != 1 || oc[obs.CacheStore] != 1 || len(oc) != 2 {
		t.Errorf("first submission: serve.analyze events %v, want miss+store", oc)
	}

	// (2) the repeat: one memo lookup, and it hits.
	hitsBefore := s.cache.Stats().Hits
	code, b = post(t, ts, "/v1/analyze", body)
	v := decodeJob(t, b)
	if code != http.StatusOK || v.ID == first.ID {
		t.Fatalf("repeat: status %d, job %q (first was %q)", code, v.ID, first.ID)
	}
	sameAnswer(t, "repeat", v.Result, want)
	answeredFromMemo(t, "repeat", v.Result.Manifest, fp)
	if got := s.cache.Stats().Hits - hitsBefore; got != 1 {
		t.Errorf("repeat: %d cache hits, want exactly 1", got)
	}

	// (4) an async body twice: another body of the design, then its
	// byte-identical repeat, which returns the first one's answer.
	async := `{"spice": ` + mustJSON(deck) + `, "include_map": true, "async": true}`
	var asyncFirst *AnalyzeResult
	for i, row := range []string{"async first", "async repeat"} {
		code, b = post(t, ts, "/v1/analyze", async)
		if code != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202: %s", row, code, b)
		}
		v = waitStatus(t, ts, decodeJob(t, b).ID, func(st Status) bool { return st == StatusDone })
		if i == 0 {
			warmAtDeltaZero(t, row, v.Result, want, fp)
			asyncFirst = v.Result
		} else {
			sameAnswer(t, row, v.Result, asyncFirst)
			answeredFromMemo(t, row, v.Result.Manifest, fp)
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
	answeredFromMemo(t, "handed-off repeat", v.Result.Manifest, fp)
	if m := v.Result.Manifest; m.Counters["serve.handoff"] != 1 || m.Config.(map[string]any)["handoff_from"] != "shard9" {
		t.Errorf("handed-off repeat: manifest does not record the handoff: %v", m.Config)
	}

	// (3) the repeat after its memo entry went: admitted in full, and a
	// warm start at delta 0.
	j, _ := s.reg.get(first.ID)
	s.cache.Drop(memoKey(j.digest))
	code, b = post(t, ts, "/v1/analyze", body)
	if code != http.StatusOK {
		t.Fatalf("repeat after drop: status %d: %s", code, b)
	}
	warmAtDeltaZero(t, "repeat after drop", decodeJob(t, b).Result, want, fp)

	// (7), last because its cold solve replaces the stored system under
	// the design's fingerprint: the same network, cards in reverse order.
	// Other bytes, so the memo misses, and the admission finds the
	// design's fingerprint. The unknowns are numbered in card order, so no
	// stored system is within the warm-start delta of this matrix: the
	// solve is cold, and its answer is the fresh server's answer to these
	// bytes (the map differs from the original deck's in the last bits).
	cards := strings.Split(strings.TrimSuffix(strings.TrimSpace(deck), ".end"), "\n")
	for i, k := 0, len(cards)-1; i < k; i, k = i+1, k-1 {
		cards[i], cards[k] = cards[k], cards[i]
	}
	reordered := `{"spice": ` + mustJSON(strings.Join(cards, "\n")+"\n.end\n") + `, "include_map": true}`
	_, tsFresh = newTestServer(t, Config{Workers: 1})
	code, b = post(t, tsFresh, "/v1/analyze", reordered)
	if code != http.StatusOK {
		t.Fatalf("reordered deck, fresh server: status %d: %s", code, b)
	}
	wantReordered := decodeJob(t, b).Result
	code, b = post(t, ts, "/v1/analyze", reordered)
	v = decodeJob(t, b)
	if code != http.StatusOK {
		t.Fatalf("reordered deck: status %d: %s", code, b)
	}
	sameAnswer(t, "reordered deck", v.Result, wantReordered)
	if oc := cacheOutcomes(t, v.Result.Manifest, "serve.analyze"); oc[obs.CacheMiss] != 1 || oc[obs.CacheStore] != 1 || len(oc) != 2 {
		t.Errorf("reordered deck: serve.analyze events %v, want miss+store", oc)
	}
	if got := v.Result.Manifest.Config.(map[string]any)["fingerprint"]; got != fp {
		t.Errorf("reordered deck: fingerprint %v, want %v", got, fp)
	}
	if d := v.Result.Manifest.Degradations; len(d) != 1 || d[0].Rung != plan.RungAMG {
		t.Errorf("reordered deck: served by %+v, want the cold rung", d)
	}
}

// TestAdmitMemoSkipsFailures: only a finished job is memoised.
// A bad deck is linted again on every submission and gets the same 400
// and issue list each time; an oversize body is 413 before any digest.
// TestMemoKeyCollisionIsAMiss: a memo entry filed under a body's key but
// holding other bytes — a maphash collision, planted here by filing body
// A's entry under body B's key — is a miss. B is admitted in full,
// solved and answered with its own map, never A's, and its store
// replaces the entry. (A's die is smaller, so B cannot warm-start off
// A's system: a fresh server's answer is B's, bit for bit.)
func TestMemoKeyCollisionIsAMiss(t *testing.T) {
	bodyA := pgenBody(51, 16, `"include_map": true`)
	bodyB := pgenBody(52, 24, `"include_map": true`)
	_, tsFresh := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsFresh, "/v1/analyze", bodyB)
	if code != http.StatusOK {
		t.Fatalf("fresh server: status %d: %s", code, b)
	}
	want := decodeJob(t, b).Result

	s, ts := newTestServer(t, Config{Workers: 1})
	code, b = post(t, ts, "/v1/analyze", bodyA)
	if code != http.StatusOK {
		t.Fatalf("body A: status %d: %s", code, b)
	}
	jA, _ := s.reg.get(decodeJob(t, b).ID)
	entryA, ok := s.cache.Get(memoKey(jA.digest))
	if !ok {
		t.Fatal("body A left no memo entry")
	}
	keyB := memoKey(maphash.Bytes(s.seed, []byte(bodyB)))
	s.cache.Put(keyB, entryA, memoBytes, "memo")

	code, b = post(t, ts, "/v1/analyze", bodyB)
	if code != http.StatusOK {
		t.Fatalf("body B: status %d: %s", code, b)
	}
	got := decodeJob(t, b).Result
	var outcomes []string
	for _, e := range got.Manifest.Cache.Events {
		if e.Stage == "serve.analyze" {
			outcomes = append(outcomes, e.Outcome)
		}
	}
	if len(outcomes) != 2 || outcomes[0] != obs.CacheMiss || outcomes[1] != obs.CacheStore {
		t.Fatalf("serve.analyze events %v, want [miss store]", outcomes)
	}
	if len(got.Manifest.Solves) == 0 {
		t.Error("body B was answered without a solve")
	}
	sameAnswer(t, "body B under A's entry", got, want)
	if e, ok := s.cache.Get(keyB); !ok || !bytes.Equal(e.(*memoEntry).body, []byte(bodyB)) {
		t.Error("body B's store did not replace the planted entry")
	}
}

func TestAdmitMemoSkipsFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
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
	if st := s.cache.Stats(); st.Hits != 0 || st.Misses != 2 || st.Stores != 0 || st.Entries != 0 {
		t.Errorf("cache stats %+v, want two memo misses and nothing stored", st)
	}
}

// TestAdmitConcurrentSameBody posts one body from 16 goroutines at
// once: whichever of them find the memo filled, 16 jobs end done with
// one answer, each manifest holding one verdict. Run under -race.
func TestAdmitConcurrentSameBody(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
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
	var hits, misses int64
	for i, v := range views {
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("job %d ended %q", i, v.Status)
		}
		ids[v.ID] = true
		if math.Float64bits(v.Result.MaxDropVolts) != math.Float64bits(views[0].Result.MaxDropVolts) {
			t.Errorf("job %d answered %g, job 0 %g", i, v.Result.MaxDropVolts, views[0].Result.MaxDropVolts)
		}
		oc := cacheOutcomes(t, v.Result.Manifest, "serve.analyze")
		hits, misses = hits+int64(oc[obs.CacheHit]), misses+int64(oc[obs.CacheMiss])
		if oc[obs.CacheHit]+oc[obs.CacheMiss] != 1 || (oc[obs.CacheHit] == 1 && len(v.Result.Manifest.Solves) != 0) {
			t.Errorf("job %d: serve.analyze events %v, %d solves; want one verdict, no solve on a hit", i, oc, len(v.Result.Manifest.Solves))
		}
	}
	if len(ids) != 16 || hits+misses != 16 || misses == 0 || s.cache.Stats().Hits < hits {
		t.Errorf("%d distinct jobs, %d hits + %d misses (cache hits %d), want 16, 16, the first a miss", len(ids), hits, misses, s.cache.Stats().Hits)
	}
}

// TestServeRecoversMemoAdmittedJob: the accepted record of a job
// answered from the memo holds the client's bytes like any other, so a
// crash before the job starts loses nothing. The first submission
// finishes and fills the memo; a second design parks the only worker;
// the repeat of the first body is a memo hit and is still queued,
// carrying no design, when the server dies.
func TestServeRecoversMemoAdmittedJob(t *testing.T) {
	_, tsCold := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsCold, "/v1/analyze", pgenBody(37, 32, `"include_map": true`))
	if code != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", code, b)
	}
	cold := decodeJob(t, b).Result.Map

	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	body := pgenBody(37, 32, `"async": true, "include_map": true`)
	if code, b = post(t, ts1, "/v1/analyze", body); code != http.StatusAccepted {
		t.Fatalf("first submission: status %d: %s", code, b)
	}
	waitStatus(t, ts1, decodeJob(t, b).ID, func(st Status) bool { return st == StatusDone })
	withGlobalFaults(t, parkMidSolve)
	var ids [2]string
	for i, bd := range []string{pgenBody(38, 32, `"async": true`), body} {
		if code, b = post(t, ts1, "/v1/analyze", bd); code != http.StatusAccepted {
			t.Fatalf("submission %d: status %d: %s", i+2, code, b)
		}
		ids[i] = decodeJob(t, b).ID
		if i == 0 {
			waitStalled(t, 1)
		}
	}
	if j, _ := s1.reg.get(ids[1]); j.memo == nil || j.design != nil || j.Status() != statusQueued {
		t.Fatalf("repeat: memo hit %t, design built %t, status %q", j.memo != nil, j.design != nil, j.Status())
	}
	s1.crash()
	ts1.Close()
	faults.SetActive(nil)
	if recs := journalTypes(t, dir); recs["accepted"] != 3 || recs["finished"] != 1 {
		t.Fatalf("crashed journal holds %v, want three accepted records and one finished", recs)
	}

	recoveredBefore := obs.CounterValue("serve.recovered")
	_, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: dir})
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

// TestServeRecoveredJobMemoises: a job recovery finishes files its
// answer under the digest of its journaled bytes — the client's body —
// so a byte-identical repeat to the restarted server is a memo hit with
// no solve. (The journal's encoder compacts the request, so the body
// here is json.Marshal's, as a program's would be.)
func TestServeRecoveredJobMemoises(t *testing.T) {
	raw, err := json.Marshal(AnalyzeRequest{Pgen: &pgen.Config{Class: pgen.Fake, W: 32, H: 32, Seed: 39}, Async: true, IncludeMap: true})
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	withGlobalFaults(t, parkMidSolve)
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, b := post(t, ts1, "/v1/analyze", body)
	if code != http.StatusAccepted {
		t.Fatalf("submission: status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitStalled(t, 1)
	s1.crash()
	ts1.Close()
	faults.SetActive(nil)

	s2, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	recovered := waitStatus(t, ts2, id, func(st Status) bool { return st == StatusDone })
	if m := recovered.Result.Manifest; m == nil || len(m.Solves) == 0 {
		t.Fatalf("recovered job did not solve: %+v", recovered.Result)
	}
	hitsBefore := s2.cache.Stats().Hits
	code, b = post(t, ts2, "/v1/analyze", body)
	if code != http.StatusAccepted {
		t.Fatalf("repeat: status %d: %s", code, b)
	}
	v := waitStatus(t, ts2, decodeJob(t, b).ID, func(st Status) bool { return st == StatusDone })
	fp := recovered.Result.Manifest.Config.(map[string]any)["fingerprint"]
	answeredFromMemo(t, "repeat of the recovered job", v.Result.Manifest, fp)
	sameAnswer(t, "repeat of the recovered job", v.Result, recovered.Result)
	if got := s2.cache.Stats().Hits - hitsBefore; got != 1 {
		t.Errorf("repeat: %d cache hits, want exactly 1", got)
	}
}
