// Command restartsmoke is the crash-durability rehearsal behind the
// restart-smoke CI gate. It boots in-process serve servers and drives
// the two recovery paths end to end:
//
//  1. Requeue-once: a solve is killed mid-iteration by an injected
//     panic (solver.pcg:panic:after=N) after checkpoints exist. The
//     worker's recovery barrier must requeue the job exactly once,
//     the retry must resume from the in-cache checkpoint, and the
//     client must see a normal 200 — with a manifest whose resume
//     section records outcome "resumed" from "requeue".
//
//  2. Kill and restart: an acknowledged async job is interrupted by a
//     hard crash (serve.(*Server).Crash — the on-disk image of a
//     kill -9, no shutdown hooks). A second server opened on the same
//     journal directory must replay the write-ahead log, re-enqueue
//     the orphan under its original id, restore its checkpoint from
//     the durable blob, and finish it — resume section "resumed" from
//     "restart", map matching an undisturbed cold solve to 1e-8.
//
// Both manifests are written to disk for manifestcheck -resume, the
// gate proving the runs really resumed mid-solve rather than silently
// re-solving from scratch. Exit status is non-zero on any violation.
//
//	restartsmoke -manifest requeue.json -restart-manifest restart.json
//	manifestcheck -resume requeue.json
//	manifestcheck -resume restart.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/serve"
)

func main() {
	manifestOut := flag.String("manifest", "", "write the requeue-path run manifest to this file")
	restartManifestOut := flag.String("restart-manifest", "", "write the restart-path run manifest to this file")
	size := flag.Int("size", 48, "generated die size (cells per side)")
	seed := flag.Int64("seed", 3, "generated die seed")
	every := flag.Int("checkpoint-every", 4, "solver checkpoint interval (iterations)")
	crashAfter := flag.Int("crash-after", 10, "requeue path: kill the solve after this many PCG iterations")
	flag.Parse()

	if err := run(*manifestOut, *restartManifestOut, *size, *seed, *every, *crashAfter); err != nil {
		fmt.Fprintf(os.Stderr, "restartsmoke: %v\n", err)
		os.Exit(1)
	}
}

func run(manifestOut, restartManifestOut string, size int, seed int64, every, crashAfter int) error {
	body := fmt.Sprintf(`{"pgen": {"class": "fake", "w": %d, "h": %d, "seed": %d}, "include_map": true}`, size, size, seed)
	asyncBody := strings.Replace(body, `"include_map"`, `"async": true, "include_map"`, 1)

	// Cold reference: an undisturbed solve of the same die, before any
	// fault profile is installed.
	cold, err := coldSolve(body)
	if err != nil {
		return fmt.Errorf("cold reference solve: %w", err)
	}
	fmt.Printf("cold solve: %d map cells, residual %.3g\n", len(cold.Map), cold.Residual)

	if err := requeuePath(body, cold, manifestOut, every, crashAfter); err != nil {
		return fmt.Errorf("requeue path: %w", err)
	}
	if err := restartPath(asyncBody, cold, restartManifestOut, every); err != nil {
		return fmt.Errorf("restart path: %w", err)
	}
	fmt.Printf("counters: serve.requeues=%d serve.recovered=%d serve.journal.errors=%d\n",
		obs.CounterValue("serve.requeues"), obs.CounterValue("serve.recovered"),
		obs.CounterValue("serve.journal.errors"))
	return nil
}

// coldSolve runs the request on a journal-less, fault-less server.
func coldSolve(body string) (*serve.AnalyzeResult, error) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer shutdown(s, ts)
	v, err := postJob(ts, body)
	if err != nil {
		return nil, err
	}
	if v.Status != serve.StatusDone || v.Result == nil || len(v.Result.Map) == 0 {
		return nil, fmt.Errorf("status %q (error %q), no map", v.Status, v.Error)
	}
	return v.Result, nil
}

// requeuePath kills a solve mid-iteration with an injected panic and
// requires the worker's requeue-once barrier to finish the job from
// its checkpoint on the retry — all within one server process.
func requeuePath(body string, cold *serve.AnalyzeResult, manifestOut string, every, crashAfter int) error {
	spec := fmt.Sprintf("solver.pcg:panic:label=numerical.amg,after=%d,times=1", crashAfter)
	faults.SetActive(faults.MustParse(spec))
	defer faults.SetActive(nil)

	dir, err := os.MkdirTemp("", "restartsmoke-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	s := serve.New(serve.Config{Workers: 1, JournalDir: dir, CheckpointEvery: every})
	ts := httptest.NewServer(s.Handler())
	defer shutdown(s, ts)

	v, err := postJob(ts, body)
	if err != nil {
		return err
	}
	if v.Status != serve.StatusDone {
		return fmt.Errorf("job %s ended %q (error %q), want done despite the injected panic", v.ID, v.Status, v.Error)
	}
	if err := checkResumed(v.Result, cold, "requeue"); err != nil {
		return err
	}
	fmt.Printf("requeue path: job %s resumed at iteration %d after an injected panic\n",
		v.ID, v.Result.Manifest.Resume.Iter)
	return writeManifest(manifestOut, v.Result.Manifest)
}

// restartPath crashes a whole server mid-solve and requires the next
// incarnation to replay the journal and finish the orphan.
func restartPath(asyncBody string, cold *serve.AnalyzeResult, manifestOut string, every int) error {
	// Park the solve right after its first durable checkpoint: the
	// second checkpoint store stalls until the crash cancels the job,
	// so the solve can neither finish nor write anything more. The
	// profile dies with the first incarnation.
	faults.SetActive(faults.MustParse("checkpoint.save:stall:after=1"))
	defer faults.SetActive(nil)

	dir, err := os.MkdirTemp("", "restartsmoke-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	s1 := serve.New(serve.Config{Workers: 1, JournalDir: dir, CheckpointEvery: every})
	ts1 := httptest.NewServer(s1.Handler())
	v, err := postJob(ts1, asyncBody)
	if err != nil {
		ts1.Close()
		return err
	}
	id := v.ID
	if err := waitForBlob(filepath.Join(dir, "checkpoints")); err != nil {
		ts1.Close()
		return err
	}
	s1.Crash()
	ts1.Close()
	faults.SetActive(nil)

	s2 := serve.New(serve.Config{Workers: 1, JournalDir: dir, CheckpointEvery: every})
	ts2 := httptest.NewServer(s2.Handler())
	defer shutdown(s2, ts2)

	v, err = pollJob(ts2, id)
	if err != nil {
		return err
	}
	if v.Status != serve.StatusDone {
		return fmt.Errorf("recovered job %s ended %q (error %q), want done", id, v.Status, v.Error)
	}
	if err := checkResumed(v.Result, cold, "restart"); err != nil {
		return err
	}
	fmt.Printf("restart path: job %s recovered across a crash, resumed at iteration %d\n",
		id, v.Result.Manifest.Resume.Iter)
	return writeManifest(manifestOut, v.Result.Manifest)
}

// checkResumed enforces the shared acceptance bar: a resume section
// with the wanted provenance, outcome "resumed" at a positive
// iteration, and a map matching the cold reference to 1e-8.
func checkResumed(r *serve.AnalyzeResult, cold *serve.AnalyzeResult, wantFrom string) error {
	if r == nil || r.Manifest == nil {
		return fmt.Errorf("no result manifest")
	}
	rs := r.Manifest.Resume
	if rs == nil {
		return fmt.Errorf("manifest has no resume section — the run re-solved from scratch")
	}
	if rs.Outcome != obs.ResumeAccepted || rs.Iter <= 0 {
		return fmt.Errorf("resume section %+v, want outcome %q at a positive iteration", rs, obs.ResumeAccepted)
	}
	if rs.From != wantFrom {
		return fmt.Errorf("resume provenance %q, want %q", rs.From, wantFrom)
	}
	if len(r.Map) != len(cold.Map) {
		return fmt.Errorf("map length %d, cold reference %d", len(r.Map), len(cold.Map))
	}
	var maxDiff float64
	for i := range cold.Map {
		if d := math.Abs(r.Map[i] - cold.Map[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		return fmt.Errorf("resumed map differs from the cold map by %g (tol 1e-8)", maxDiff)
	}
	return nil
}

func writeManifest(path string, m *obs.Manifest) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("manifest written to %s\n", path)
	return nil
}

// postJob submits an analyze request. Synchronous bodies return the
// finished job; async bodies return the 202 acknowledgement.
func postJob(ts *httptest.Server, body string) (serve.JobView, error) {
	var v serve.JobView
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, fmt.Errorf("POST /v1/analyze: status %d: %s", resp.StatusCode, b)
	}
	err = json.Unmarshal(b, &v)
	return v, err
}

// pollJob waits for the job to reach a terminal status.
func pollJob(ts *httptest.Server, id string) (serve.JobView, error) {
	var v serve.JobView
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			return v, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return v, err
		}
		if resp.StatusCode != http.StatusOK {
			return v, fmt.Errorf("GET job %s: status %d: %s", id, resp.StatusCode, b)
		}
		if err := json.Unmarshal(b, &v); err != nil {
			return v, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return v, fmt.Errorf("job %s did not finish before the deadline", id)
}

// waitForBlob blocks until a published checkpoint blob (not a temp
// file mid-rename) sits in the journal's blob directory — the earliest
// moment a crash is recoverable mid-solve, and with the solve parked a
// stable state rather than a window.
func waitForBlob(dir string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if blobs, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(blobs) > 0 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("no checkpoint blob appeared in %s before the deadline", dir)
}

func shutdown(s *serve.Server, ts *httptest.Server) {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Close(ctx)
}
