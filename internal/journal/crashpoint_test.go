package journal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The crash-point enumeration: a scripted job history is replayed up
// to every write boundary (each append, each blob save or drop as an
// older release made them), the directory image is left exactly as a
// kill at that boundary would leave it — and, for appends,
// additionally with the last frame torn — and a reopened journal must
// satisfy the fold invariants the serving layer's recovery is built
// on, with whatever blobs the image holds left as they are. The
// torn-tail fuzzer covers bytes; this covers ordering.

// crashOp is one durable write of the script.
type crashOp struct {
	kind string // "append", "save", "drop"
	rec  Record // for append
	job  string // for save/drop: whose blob
}

// crashKey models an older release's blob key: a pure function of the
// journaled request, so no record names it.
func crashKey(request []byte) string { return "ckpt|" + string(request) }

func crashRequest(job string) []byte { return []byte(fmt.Sprintf(`{"design":%q}`, job)) }

// crashModel is what must be true of a directory image.
type crashModel struct {
	order    []string        // acceptance order
	terminal map[string]bool // jobs a terminal record closed
	blobs    map[string]bool // jobs with a checkpoint blob on disk
}

func (m crashModel) clone() crashModel {
	c := crashModel{order: append([]string(nil), m.order...), terminal: map[string]bool{}, blobs: map[string]bool{}}
	for k, v := range m.terminal {
		c.terminal[k] = v
	}
	for k, v := range m.blobs {
		c.blobs[k] = v
	}
	return c
}

func (m crashModel) orphans() []string {
	var out []string
	for _, id := range m.order {
		if !m.terminal[id] {
			out = append(out, id)
		}
	}
	return out
}

func crashScript() []crashOp {
	app := func(typ, job string) crashOp {
		r := Record{Type: typ, JobID: job}
		if typ == TypeAccepted {
			r.Request = crashRequest(job)
		}
		return crashOp{kind: "append", rec: r}
	}
	// The "started" and "requeued" records are an earlier release's: the
	// script replays a journal that release wrote.
	return []crashOp{
		app(TypeAccepted, "job-1"),
		app("started", "job-1"),
		{kind: "save", job: "job-1"}, // a blob no record will ever name
		app(TypeAccepted, "job-2"),
		app(TypeAccepted, "job-3"),
		{kind: "save", job: "job-1"}, // replaced in place
		app("started", "job-2"),
		app(TypeFinished, "job-1"),
		{kind: "drop", job: "job-1"},
		{kind: "save", job: "job-2"},
		app("requeued", "job-2"), // worker panic: still in flight
		app(TypeCancelled, "job-3"),
		app("started", "job-2"),
		app(TypeFailed, "job-2"),
		{kind: "drop", job: "job-2"},
		app(TypeFinished, "job-4"), // a memo hit finishes before
		app(TypeAccepted, "job-4"), // its handler journals the request
	}
}

// applyCrashOps writes the first n ops of the script into dir and
// returns the model of the resulting image. With tear set, the n-th op
// (which must be an append) loses the tail of its frame, as if the
// process died mid-write: the model then excludes it.
func applyCrashOps(t *testing.T, dir string, script []crashOp, n int, tear bool) crashModel {
	t.Helper()
	j, _, err := Open(dir, Options{Sync: SyncNone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := crashModel{terminal: map[string]bool{}, blobs: map[string]bool{}}
	before := m.clone()
	for _, op := range script[:n] {
		before = m.clone()
		switch op.kind {
		case "append":
			if err := j.Append(context.Background(), op.rec); err != nil {
				t.Fatal(err)
			}
			if op.rec.Type == TypeAccepted {
				m.order = append(m.order, op.rec.JobID)
			}
			if op.rec.Terminal() {
				m.terminal[op.rec.JobID] = true
			}
		case "save":
			if err := j.SaveBlob(crashKey(crashRequest(op.job)), []byte("iterate of "+op.job)); err != nil {
				t.Fatal(err)
			}
			m.blobs[op.job] = true
		case "drop":
			if err := os.Remove(j.blobPath(crashKey(crashRequest(op.job)))); err != nil {
				t.Fatal(err)
			}
			delete(m.blobs, op.job)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !tear {
		return m
	}
	seg := filepath.Join(dir, "journal-000001.wal")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	return before
}

// checkCrashImage reopens dir and holds the replayed fold against the
// model: every in-flight job an orphan exactly once and in acceptance
// order, no closed job resurrected, every request intact, and every
// blob on disk still there, untouched by replay, exactly when the
// model says one was saved — recovery neither reads nor removes them.
func checkCrashImage(t *testing.T, dir string, want crashModel) {
	t.Helper()
	fold := NewFold()
	j, _, err := Open(dir, Options{Sync: SyncNone}, fold.Add)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	orphans := fold.Orphans()
	wantOrphans := want.orphans()
	if len(orphans) != len(wantOrphans) {
		t.Fatalf("orphans %+v, want %v", orphans, wantOrphans)
	}
	for i, st := range orphans {
		if st.JobID != wantOrphans[i] {
			t.Fatalf("orphan %d is %s, want %s (acceptance order, each once)", i, st.JobID, wantOrphans[i])
		}
		if want.terminal[st.JobID] {
			t.Fatalf("closed job %s resurrected", st.JobID)
		}
		if string(st.Request) != string(crashRequest(st.JobID)) {
			t.Fatalf("orphan %s lost its request: %q", st.JobID, st.Request)
		}
	}
	for _, job := range []string{"job-1", "job-2", "job-3"} {
		_, err := os.Stat(j.blobPath(crashKey(crashRequest(job))))
		if onDisk := err == nil; onDisk != want.blobs[job] {
			t.Fatalf("%s: blob on disk %v, want %v", job, onDisk, want.blobs[job])
		}
	}
}

func TestCrashPointEnumeration(t *testing.T) {
	script := crashScript()
	for n := 0; n <= len(script); n++ {
		for _, tear := range []bool{false, true} {
			if tear && (n == 0 || script[n-1].kind != "append") {
				continue
			}
			t.Run(fmt.Sprintf("after-%d-tear-%v", n, tear), func(t *testing.T) {
				dir := t.TempDir()
				want := applyCrashOps(t, dir, script, n, tear)
				checkCrashImage(t, dir, want)
				// Recovery itself may die: a second reopen of the same
				// image (torn tail now truncated) must fold identically.
				checkCrashImage(t, dir, want)
			})
		}
	}
}

// TestReplayLegacyCheckpointRecords: journals written before checkpoint
// keys were derived hold "checkpoint" records with a checkpoint_key
// field. Replay must fold them as ordinary non-terminal records.
func TestReplayLegacyCheckpointRecords(t *testing.T) {
	dir := t.TempDir()
	var seg []byte
	for _, payload := range []string{
		`{"type":"accepted","job_id":"job-000001","time":"2026-01-01T00:00:00Z","request":{"mode":"numerical"}}`,
		`{"type":"started","job_id":"job-000001","time":"2026-01-01T00:00:01Z"}`,
		`{"type":"checkpoint","job_id":"job-000001","time":"2026-01-01T00:00:02Z","checkpoint_key":"ckpt|abc|shape"}`,
	} {
		seg = append(seg, encodeFrame([]byte(payload))...)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	fold := NewFold()
	j, stats, err := Open(dir, Options{}, fold.Add)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if stats.Records != 3 || stats.Corrupt != 0 || stats.TornBytes != 0 {
		t.Fatalf("replay stats %+v, want 3 clean records", stats)
	}
	orphans := fold.Orphans()
	if len(orphans) != 1 || orphans[0].JobID != "job-000001" {
		t.Fatalf("orphans %+v, want job-000001 still in flight after its legacy checkpoint record", orphans)
	}
	if string(orphans[0].Request) != `{"mode":"numerical"}` {
		t.Fatalf("request %q", orphans[0].Request)
	}
}
