package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/faults"
	"irfusion/internal/journal"
	"irfusion/internal/obs"
)

// parkMidSolve is the fault that ends a process image, or holds a
// worker busy, at a known point instead of racing a timer: two PCG
// iterations run, and every later one stalls until its job's context is
// cancelled — so from then on a solve can neither advance nor finish
// nor write anything more. A crash test removes it before starting the
// next incarnation.
var parkMidSolve = faults.Rule{Site: faults.SitePCG, Action: faults.ActStall, After: 2}

// waitStalled blocks until n goroutines sit in a stall fault
// (faults.(*Fault).Sleep) — with parkMidSolve installed, until n
// solves are parked mid-solve. It observes a stable state, not a
// window.
func waitStalled(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := bytes.Count(buf[:runtime.Stack(buf, true)], []byte("internal/faults.(*Fault).Sleep("))
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d solves parked mid-solve before the deadline", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// manifestKeys returns the top-level keys of the manifest in a job
// view's JSON, so a test can see a key the decoded obs.Manifest drops.
func manifestKeys(t *testing.T, body []byte) map[string]json.RawMessage {
	t.Helper()
	var v struct {
		Result struct {
			Manifest map[string]json.RawMessage `json:"manifest"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.Result.Manifest
}

// sameMap fails unless got is the undisturbed server's map want, cell
// for cell, to tol.
func sameMap(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("map has %d cells, the undisturbed map %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol {
			t.Fatalf("cell %d differs from the undisturbed map by %g (tol %g)", i, d, tol)
		}
	}
}

// TestServeCrashRestartRerunsJob is the end-to-end durability check:
// an acknowledged async job survives a hard crash mid-solve (no
// shutdown hooks, on-disk image only) with one accepted record and
// nothing after it, is re-enqueued once under its original id by the
// restarted process, re-runs its solve — journaling only its terminal
// record — and produces the map a never-crashed server produces, to
// 1e-8. Nothing resumes: the manifest has no resume section, and no
// process writes a checkpoints/ directory.
func TestServeCrashRestartRerunsJob(t *testing.T) {
	body := pgenBody(31, 32, `"async": true, "include_map": true`)

	// Reference map from an undisturbed server — computed before any
	// fault is installed.
	_, tsCold := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsCold, "/v1/analyze", pgenBody(31, 32, `"include_map": true`))
	if code != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", code, b)
	}
	cold := decodeJob(t, b).Result

	withGlobalFaults(t, parkMidSolve)

	dir := t.TempDir()
	recoveredBefore := obs.CounterValue("serve.recovered")

	// First incarnation: managed by hand, because the only way out of
	// this server is crash() — the cleanup-path Close would flush state
	// a real crash never flushes.
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, b = post(t, ts1, "/v1/analyze", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitStalled(t, 1)
	s1.crash()
	ts1.Close()
	faults.SetActive(nil)
	if recs := journalTypes(t, dir); recs[journal.TypeAccepted] != 1 || len(recs) != 1 {
		t.Fatalf("crashed journal holds %v, want one accepted record", recs)
	}

	// Second incarnation on the same journal directory: replay must
	// find the orphan and finish it.
	s2, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if s2.replayStats.Records == 0 {
		t.Fatal("restarted server replayed no journal records")
	}
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 1 {
		t.Fatalf("serve.recovered advanced by %d, want 1", got)
	}

	v := waitStatus(t, ts2, id, func(st Status) bool { return st == StatusDone })
	if v.ID != id {
		t.Fatalf("recovered job kept id %q, want original %q", v.ID, id)
	}
	_, b = get(t, ts2, "/v1/jobs/"+id)
	if _, ok := manifestKeys(t, b)["resume"]; ok {
		t.Error("recovered job's manifest has a resume section")
	}
	sameMap(t, v.Result.Map, cold.Map, 1e-8)
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Errorf("a checkpoints/ directory was written (stat: %v)", err)
	}
	if err := s2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if recs := journalTypes(t, dir); recs[journal.TypeAccepted] != 1 || recs[journal.TypeFinished] != 1 || len(recs) != 2 {
		t.Errorf("recovered job's journal holds %v, want one accepted and one finished record", recs)
	}
}

// TestServeRecoversParentJournal: a journal directory the previous
// release left (testdata/parent_journal, written by that release's
// server with a 2-iteration checkpoint interval, crashed mid-solve)
// holds one orphan — accepted and started, no terminal record — and
// the snapshot blob that release saved under checkpoints/. This server
// finishes the orphan under its original id by re-running the solve,
// never reads or removes the blob, and answers with the map a fresh
// server gives the same body, to 1e-8.
func TestServeRecoversParentJournal(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"journal-000001.wal", "checkpoints/83dbbc354ef9084f.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata/parent_journal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob := filepath.Join(dir, "checkpoints/83dbbc354ef9084f.ckpt")
	before, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}

	recoveredBefore := obs.CounterValue("serve.recovered")
	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 1 {
		t.Fatalf("serve.recovered advanced by %d, want 1", got)
	}
	v := waitStatus(t, ts, "job-000001", Status.Terminal)
	if v.Status != StatusDone || v.Result == nil {
		t.Fatalf("orphan ended %q (error %q)", v.Status, v.Error)
	}
	_, b := get(t, ts, "/v1/jobs/job-000001")
	if _, ok := manifestKeys(t, b)["resume"]; ok {
		t.Error("recovered job's manifest has a resume section")
	}

	_, tsFresh := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsFresh, "/v1/analyze", pgenBody(43, 32, `"include_map": true`))
	if code != http.StatusOK {
		t.Fatalf("fresh solve: status %d: %s", code, b)
	}
	sameMap(t, v.Result.Map, decodeJob(t, b).Result.Map, 1e-8)
	if after, err := os.ReadFile(blob); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the parent's blob was touched (read error %v)", err)
	}
}

// TestServeRecoversRetiredPrecisionRequest: a journal directory left by
// an earlier binary may hold accepted requests carrying fields since
// retired (the records below are what the PR 18 and PR 21 binaries
// journaled for such requests). A new submission with either field is a
// 400, but a journaled job is still owed its answer: recovery must
// re-run it to done, and the map must equal a fresh solve of the same
// deck to 1e-9.
func TestServeRecoversRetiredPrecisionRequest(t *testing.T) {
	const pgenTail = `"vdd":0,"num_pads":0,"cell_pitch":0,"background_amps":0,"hotspots":0,"hotspot_amps":0,"blockages":0},`
	rows := []struct {
		id, name, accepted, fresh string
	}{
		{id: "job-000001", name: "PR 18, precision mixed",
			accepted: `{"pgen":{"name":"","class":"fake","seed":31,"w":32,"h":32,` + pgenTail +
				`"mode":"numerical","precond":"amg","precision":"mixed","format":"auto","include_map":true}`,
			fresh: pgenBody(31, 32, `"include_map": true`)},
		{id: "job-000002", name: "PR 21, format sell",
			accepted: `{"pgen":{"name":"","class":"fake","seed":33,"w":32,"h":32,` + pgenTail +
				`"mode":"numerical","precond":"amg","format":"sell","include_map":true}`,
			fresh: pgenBody(33, 32, `"include_map": true`)},
		{id: "job-000003", name: "PR 21, format auto",
			accepted: `{"pgen":{"name":"","class":"real","seed":17,"w":24,"h":24,` + pgenTail +
				`"mode":"numerical","precond":"amg","format":"auto","include_map":true}`,
			fresh: `{"pgen": {"class": "real", "w": 24, "h": 24, "seed": 17}, "include_map": true}`},
	}
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := j.Append(context.Background(), journal.Record{Type: journal.TypeAccepted, JobID: r.id, Request: json.RawMessage(r.accepted)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	_, tsFresh := newTestServer(t, Config{Workers: 1})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			v := waitStatus(t, ts, r.id, Status.Terminal)
			if v.Status != StatusDone || v.Result == nil || v.Result.Manifest == nil {
				t.Fatalf("recovered job ended %q (error %q)", v.Status, v.Error)
			}
			code, b := post(t, tsFresh, "/v1/analyze", r.fresh)
			if code != http.StatusOK {
				t.Fatalf("fresh solve: status %d: %s", code, b)
			}
			fresh := decodeJob(t, b).Result.Map
			if len(v.Result.Map) != len(fresh) || len(fresh) == 0 {
				t.Fatalf("map lengths %d and %d", len(v.Result.Map), len(fresh))
			}
			for i := range fresh {
				if d := math.Abs(v.Result.Map[i] - fresh[i]); d > 1e-9 {
					t.Fatalf("cell %d differs from the fresh solve by %g", i, d)
				}
			}
		})
	}
}

// journalTypes replays a journal directory read-only-in-effect and
// tallies its records by type.
func journalTypes(t *testing.T, dir string) map[string]int {
	t.Helper()
	out := map[string]int{}
	j, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone}, func(r journal.Record) { out[r.Type]++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeRestartSkipsFinishedJobs: a finished job leaves one
// accepted and one finished record, and must not be resurrected by a
// restart — its terminal record closes it out in the journal fold.
func TestServeRestartSkipsFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, b := post(t, ts1, "/v1/analyze", pgenBody(7, 24, ""))
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, b)
	}
	ts1.Close()
	// A crash after completion. The client sees "done" before the
	// worker has journaled the finished record, so wait for the worker
	// to leave the job: only then is the record durable.
	for deadline := time.Now().Add(10 * time.Second); s1.InFlight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never left the finished job")
		}
	}
	s1.crash()
	if recs := journalTypes(t, dir); recs[journal.TypeAccepted] != 1 || recs[journal.TypeFinished] != 1 || len(recs) != 2 {
		t.Fatalf("finished job's journal holds %v, want one accepted and one finished record", recs)
	}

	recoveredBefore := obs.CounterValue("serve.recovered")
	s2, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if s2.replayStats.Records == 0 {
		t.Fatal("restarted server replayed no journal records")
	}
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 0 {
		t.Fatalf("finished job resurrected: serve.recovered advanced by %d", got)
	}
}

// TestServeJobIDsUniqueAcrossRestarts: a restarted server numbers new
// jobs past every id its journal holds, finished ones included. Three
// incarnations share one directory: the first finishes a job, the
// second acknowledges one and crashes mid-solve, and the third must
// recover that job under its own id — which a second server that
// reused the first one's id would have buried under the finished
// record — and number its next job past both.
func TestServeJobIDsUniqueAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, b := post(t, ts1, "/v1/analyze", pgenBody(7, 24, ""))
	if code != http.StatusOK {
		t.Fatalf("first server: status %d: %s", code, b)
	}
	first := decodeJob(t, b).ID
	ts1.Close()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	withGlobalFaults(t, parkMidSolve)
	s2 := New(Config{Workers: 1, JournalDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	code, b = post(t, ts2, "/v1/analyze", pgenBody(8, 24, `"async": true`))
	if code != http.StatusAccepted {
		t.Fatalf("second server: status %d: %s", code, b)
	}
	parked := decodeJob(t, b).ID
	waitStalled(t, 1)
	s2.crash()
	ts2.Close()
	faults.SetActive(nil)

	recoveredBefore := obs.CounterValue("serve.recovered")
	_, ts3 := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 1 {
		t.Fatalf("serve.recovered advanced by %d, want 1", got)
	}
	if v := waitStatus(t, ts3, parked, Status.Terminal); v.Status != StatusDone || v.ID != parked {
		t.Fatalf("parked job %s ended %q as %q (error %q)", parked, v.Status, v.ID, v.Error)
	}
	if parked == first {
		t.Fatalf("the second server reissued %s", first)
	}
	code, b = post(t, ts3, "/v1/analyze", pgenBody(9, 24, ""))
	if code != http.StatusOK {
		t.Fatalf("third server's new job: status %d: %s", code, b)
	}
	if next := decodeJob(t, b).ID; next == first || next == parked {
		t.Fatalf("third server's new job reuses id %s (journal holds %s and %s)", next, first, parked)
	}
}

// TestServeLateAcceptanceNotRecovered: the handler journals a job's
// acceptance after handing the job to the queue, so a worker that
// finishes fast (a memo hit, an early failure) can journal the
// terminal record first. A stall on the accepted append, released when
// the job ends, forces that order; the restarted server must not run
// the finished job again.
func TestServeLateAcceptanceNotRecovered(t *testing.T) {
	withGlobalFaults(t, faults.Rule{Site: faults.SiteJournalAppend, Action: faults.ActStall, Label: journal.TypeAccepted, Times: 1})
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, b := post(t, ts1, "/v1/analyze", pgenBody(7, 24, ""))
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, b)
	}
	ts1.Close()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	faults.SetActive(nil)
	var order []string
	j, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone}, func(r journal.Record) { order = append(order, r.Type) })
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != journal.TypeFinished || order[1] != journal.TypeAccepted {
		t.Fatalf("journal holds %v, want finished then accepted", order)
	}

	recoveredBefore := obs.CounterValue("serve.recovered")
	newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 0 {
		t.Fatalf("finished job resurrected: serve.recovered advanced by %d", got)
	}
}

// TestServeJournalDisabledByDefault: without a JournalDir the server
// runs exactly as before this subsystem existed — no directory, no
// replay state, healthz reports the journal off.
func TestServeJournalDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if s.journal != nil {
		t.Fatal("journal open without a JournalDir")
	}
	code, b := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		Journal struct {
			Enabled bool `json:"enabled"`
		} `json:"journal"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Journal.Enabled {
		t.Error("healthz reports the journal enabled")
	}
}

// TestServeFingerprintsOnce: a cold request canonicalises, sorts and
// hashes its design once — at admission. The solve path takes that
// fingerprint instead of recomputing it, so the stored system is filed
// under the fingerprint the admission holds, and the memo entry carries
// it; a journaled solve parked mid-flight has still hashed once.
func TestServeFingerprintsOnce(t *testing.T) {
	const counter = "cache.fingerprint.calls"
	s, ts := newTestServer(t, Config{Workers: 1})
	before, listed := metricszCounters(t, ts)[counter]
	if !listed {
		t.Fatalf("/metricsz does not list %s", counter)
	}
	code, b := post(t, ts, "/v1/analyze", pgenBody(41, 32, ""))
	if code != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", code, b)
	}
	if got := obs.CounterValue(counter) - before; got != 1 {
		t.Errorf("one cold request moved %s by %d, want 1", counter, got)
	}
	j, _ := s.reg.get(decodeJob(t, b).ID)
	if j == nil || j.fp == "" {
		t.Fatal("finished job holds no admission fingerprint")
	}
	if _, ok := s.cache.Get(cache.SystemKey(j.fp)); !ok {
		t.Error("no system artifact under the admission's fingerprint")
	}
	if e, ok := s.cache.Get(memoKey(j.digest)); !ok || e.(*memoEntry).adm.fp != j.fp {
		t.Error("no memo entry holding the admission's fingerprint")
	}

	// A journaled cold request parked mid-solve: admission, journal
	// records and the solve so far have hashed the design once.
	withGlobalFaults(t, parkMidSolve)
	s2 := New(Config{Workers: 1, JournalDir: t.TempDir()})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.crash() // the parked solve ends no other way
	before = obs.CounterValue(counter)
	code, b = post(t, ts2, "/v1/analyze", pgenBody(42, 32, `"async": true`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	waitStalled(t, 1)
	if got := obs.CounterValue(counter) - before; got != 1 {
		t.Errorf("one journaled cold request parked mid-solve moved %s by %d, want 1", counter, got)
	}
}
