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

// parkAfterFirstCheckpoint is the fault that ends a process
// image at a known point instead of racing a timer: the first
// checkpoint is stored and its blob saved normally, the second
// checkpoint's store stalls until the job's context is cancelled — so
// from the moment the first blob is durable the solve cannot advance,
// finish, or write anything more until crash() takes the server down.
// The fault belongs to the process that dies: remove it before
// starting the next incarnation.
var parkAfterFirstCheckpoint = faults.Rule{Site: faults.SiteCheckpointSave, Action: faults.ActStall, After: 1}

// waitParked blocks until the job's first checkpoint blob can be loaded
// under the key recovery will derive from the journaled request. With
// parkAfterFirstCheckpoint installed that state is stable, so the wait
// observes an event, not a window.
func waitParked(t *testing.T, s *Server, id string) {
	t.Helper()
	j, ok := s.reg.get(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	key := checkpointKey(&j.req, cache.DesignFingerprint(j.design))
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.journal.LoadBlob(key); err == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no checkpoint blob appeared under the derived key before the deadline")
}

// stallCheckpoints parks every converged cached solve at its first
// checkpoint store: by then it has iterated CheckpointEvery times, and
// it can neither advance nor finish until its context is cancelled.
var stallCheckpoints = faults.Rule{Site: faults.SiteCheckpointSave, Action: faults.ActStall}

// waitStalled blocks until n goroutines sit in a stall fault
// (faults.(*Fault).Sleep) — with stallCheckpoints installed, until n
// solves are parked mid-solve. Like waitParked it observes a stable
// state, not a window.
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
			t.Fatalf("%d of %d solves parked at a checkpoint before the deadline", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeCrashRestartResumesJob is the end-to-end durability check:
// an acknowledged async job survives a hard crash (no shutdown
// hooks, on-disk image only), is re-enqueued under its original id by
// the restarted process, resumes from its last durable checkpoint,
// and produces the same map a never-crashed solve produces, to the
// cache guard tolerance.
func TestServeCrashRestartResumesJob(t *testing.T) {
	body := pgenBody(31, 32, `"async": true, "include_map": true`)

	// Cold reference map from an undisturbed server — computed before
	// any fault is installed so it costs full price, no shortcuts.
	_, tsCold := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsCold, "/v1/analyze", pgenBody(31, 32, `"include_map": true`))
	if code != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", code, b)
	}
	coldView := decodeJob(t, b)
	if coldView.Result == nil || len(coldView.Result.Map) == 0 {
		t.Fatal("cold solve returned no map")
	}
	cold := coldView.Result

	withGlobalFaults(t, parkAfterFirstCheckpoint)

	dir := t.TempDir()
	recoveredBefore := obs.CounterValue("serve.recovered")

	// First incarnation: managed by hand, because the only way out of
	// this server is crash() — the cleanup-path Close would flush state
	// a real crash never flushes.
	s1 := New(Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1.Handler())
	code, b = post(t, ts1, "/v1/analyze", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitParked(t, s1, id)
	s1.crash()
	ts1.Close()
	faults.SetActive(nil)
	// The image holds what a kill -9 leaves: a blob the journal never
	// names — no record type mentions checkpoints any more.
	if recs := journalTypes(t, dir); recs["checkpoint"] != 0 || recs[journal.TypeAccepted] != 1 {
		t.Fatalf("crashed journal holds %v, want one accepted record and no checkpoint records", recs)
	}

	// Second incarnation on the same journal directory: replay must
	// find the orphan and finish it.
	s2, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
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
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatalf("recovered job has no result/manifest: %+v", v)
	}
	mf := v.Result.Manifest
	if mf.Resume == nil {
		t.Fatal("recovered job's manifest has no resume section")
	}
	if mf.Resume.From != fromRestart {
		t.Errorf("resume provenance %q, want %q", mf.Resume.From, fromRestart)
	}
	if mf.Resume.Outcome != obs.ResumeAccepted || mf.Resume.Iter <= 0 {
		t.Errorf("resume section %+v, want an accepted mid-solve resume", mf.Resume)
	}

	if len(v.Result.Map) != len(cold.Map) {
		t.Fatalf("map length %d, want %d", len(v.Result.Map), len(cold.Map))
	}
	var maxDiff float64
	for i := range cold.Map {
		if d := math.Abs(v.Result.Map[i] - cold.Map[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("resumed map differs from cold map by %g (tol 1e-8)", maxDiff)
	}
	// The finished job took its blob with it (drain first: a job turns
	// "done" before its worker has journaled the terminal record).
	if err := s2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(filepath.Join(dir, "checkpoints")); len(ents) != 0 {
		t.Errorf("finished job left %d file(s) in checkpoints/", len(ents))
	}
}

// TestServeRecoveryPassesCheckpointSaveFault: restoring a blob is not
// saving one. The parking profile stays installed when the second
// incarnation starts, so by then every checkpoint.save stalls; New
// must return all the same (recovery used to re-insert the blob
// through cache.StoreCheckpoint and hung there for good) and the
// recovered job must resume from the restored checkpoint. The second
// incarnation takes no checkpoints of its own, so the profile cannot
// park it.
func TestServeRecoveryPassesCheckpointSaveFault(t *testing.T) {
	withGlobalFaults(t, parkAfterFirstCheckpoint)
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1.Handler())
	code, b := post(t, ts1, "/v1/analyze", pgenBody(31, 32, `"async": true`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitParked(t, s1, id)
	s1.crash()
	ts1.Close()

	started := make(chan *Server, 1)
	go func() { started <- New(Config{Workers: 1, JournalDir: dir, CheckpointEvery: -1}) }()
	var s2 *Server
	select {
	case s2 = <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("serve.New did not return: recovery stalled on the installed checkpoint.save fault")
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		if err := s2.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	v := waitStatus(t, ts2, id, func(st Status) bool { return st == StatusDone })
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatalf("recovered job has no result/manifest: %+v", v)
	}
	rs := v.Result.Manifest.Resume
	if rs == nil || rs.Outcome != obs.ResumeAccepted || rs.Iter <= 0 || rs.From != fromRestart {
		t.Fatalf("resume section %+v, want the restored checkpoint resumed mid-solve from %q", rs, fromRestart)
	}
}

// TestServeRecoversRetiredPrecisionRequest: a journal directory left by
// an earlier binary may hold accepted requests carrying fields since
// retired (the records below are what the PR 18 and PR 21 binaries
// journaled for such requests). A new submission with either field is a
// 400, but a journaled job is still owed its answer: recovery must
// re-run it to done, and the map must equal a fresh solve of the same
// deck to 1e-9. A forced-format job solves cold (the fmt=sell key its
// blob was saved under is no longer derivable); an auto-format one
// still finds the blob the earlier binary left — here the PR 18
// fixture, keyed and laid out as that binary wrote it.
func TestServeRecoversRetiredPrecisionRequest(t *testing.T) {
	const pgenTail = `"vdd":0,"num_pads":0,"cell_pitch":0,"background_amps":0,"hotspots":0,"hotspot_amps":0,"blockages":0},`
	blob, err := os.ReadFile("../cache/testdata/checkpoint_pr18.bin")
	if err != nil {
		t.Fatal(err)
	}
	art, err := cache.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id, name, accepted, fresh string
		resumes                   bool
	}{
		{id: "job-000001", name: "PR 18, precision mixed",
			accepted: `{"pgen":{"name":"","class":"fake","seed":31,"w":32,"h":32,` + pgenTail +
				`"mode":"numerical","precond":"amg","precision":"mixed","format":"auto","include_map":true}`,
			fresh: pgenBody(31, 32, `"include_map": true`)},
		{id: "job-000002", name: "PR 21, format sell",
			accepted: `{"pgen":{"name":"","class":"fake","seed":33,"w":32,"h":32,` + pgenTail +
				`"mode":"numerical","precond":"amg","format":"sell","include_map":true}`,
			fresh: pgenBody(33, 32, `"include_map": true`)},
		// The deck checkpoint_pr18.bin is a snapshot of (see
		// plan.TestSolvePathsAgree).
		{id: "job-000003", name: "PR 21, format auto, blob on disk",
			accepted: `{"pgen":{"name":"","class":"real","seed":17,"w":24,"h":24,` + pgenTail +
				`"mode":"numerical","precond":"amg","format":"auto","include_map":true}`,
			fresh:   `{"pgen": {"class": "real", "w": 24, "h": 24, "seed": 17}, "include_map": true}`,
			resumes: true},
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
	if err := j.SaveBlob(cache.CheckpointKey(art.Fingerprint, art.Shape), blob); err != nil {
		t.Fatal(err)
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
			rs := v.Result.Manifest.Resume
			if resumed := rs != nil && rs.Outcome == obs.ResumeAccepted && rs.Iter == art.State.Iter; resumed != r.resumes {
				t.Errorf("resume section %+v; resumes from the blob on disk: want %t", rs, r.resumes)
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

// TestServeRestartSkipsFinishedJobs: a cleanly finished job must not
// be resurrected by a restart — its terminal record closes it out in
// the journal fold.
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

	recoveredBefore := obs.CounterValue("serve.recovered")
	s2, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if s2.replayStats.Records == 0 {
		t.Fatal("restarted server replayed no journal records")
	}
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
// fingerprint instead of recomputing it, so the stored system and the
// checkpoint (cache entry and durable blob) are filed under the
// fingerprint the admission holds, and the memo entry carries it.
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

	// The checkpoint: park a second server's solve behind its first
	// snapshot and look both stores up by the admission's fingerprint.
	withGlobalFaults(t, parkAfterFirstCheckpoint)
	s2 := New(Config{Workers: 1, JournalDir: t.TempDir(), CheckpointEvery: 2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.crash() // the parked solve ends no other way
	before = obs.CounterValue(counter)
	code, b = post(t, ts2, "/v1/analyze", pgenBody(42, 32, `"async": true`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	j, _ = s2.reg.get(decodeJob(t, b).ID)
	key := checkpointKey(&j.req, j.fp)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := s2.journal.LoadBlob(key); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint blob under the admission's fingerprint before the deadline")
		}
	}
	if _, ok := s2.cache.Get(key); !ok {
		t.Error("no checkpoint cache entry under the admission's fingerprint")
	}
	if got := obs.CounterValue(counter) - before; got != 1 {
		t.Errorf("one checkpointing cold request moved %s by %d, want 1", counter, got)
	}
}
