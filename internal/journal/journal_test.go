package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"irfusion/internal/faults"
)

func mustAppend(t *testing.T, j *Journal, rec Record) {
	t.Helper()
	if err := j.Append(context.Background(), rec); err != nil {
		t.Fatalf("append %+v: %v", rec, err)
	}
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	j, stats, err := Open(dir, Options{}, func(r Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	j.Close()
	return recs, stats
}

// TestJournalRoundTrip: appended records come back in order on replay,
// with every field intact.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, stats, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Segments != 0 {
		t.Fatalf("fresh journal stats: %+v", stats)
	}
	want := []Record{
		{Type: TypeAccepted, JobID: "job-000001", Request: []byte(`{"mode":"numerical"}`)},
		{Type: TypeAccepted, JobID: "job-000002", Request: []byte(`{"mode":"fused"}`)},
		{Type: TypeFailed, JobID: "job-000001", Detail: "worker-panic"},
		{Type: TypeFinished, JobID: "job-000002"},
	}
	for _, r := range want {
		mustAppend(t, j, r)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(context.Background(), Record{Type: TypeFinished}); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v, want errClosed", err)
	}

	recs, stats := replayAll(t, dir)
	if stats.Records != len(want) || stats.TornBytes != 0 || stats.Corrupt != 0 {
		t.Fatalf("replay stats: %+v", stats)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Type != want[i].Type || r.JobID != want[i].JobID ||
			r.Detail != want[i].Detail || string(r.Request) != string(want[i].Request) {
			t.Errorf("record %d: %+v, want %+v", i, r, want[i])
		}
		if r.Time.IsZero() {
			t.Errorf("record %d: append never stamped a time", i)
		}
	}
}

// TestJournalSegmentRotation: appends beyond SegmentBytes rotate to new
// segment files, and replay stitches all of them back together.
func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		mustAppend(t, j, Record{Type: TypeAccepted, JobID: fmt.Sprintf("job-%06d", i)})
	}
	j.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("got %d segments, want rotation to have produced several", len(segs))
	}
	recs, stats := replayAll(t, dir)
	if len(recs) != n {
		t.Fatalf("replayed %d records across %d segments, want %d", len(recs), stats.Segments, n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("job-%06d", i); r.JobID != want {
			t.Fatalf("record %d out of order: %q, want %q", i, r.JobID, want)
		}
	}
}

// TestJournalTornTailTruncated: a torn final frame (simulating a crash
// mid-write) is truncated on open, the clean prefix replays, and a
// second open sees no damage at all — truncation is idempotent.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Type: TypeAccepted, JobID: "job-000001"})
	mustAppend(t, j, Record{Type: TypeAccepted, JobID: "job-000002"})
	j.Close()

	// Tear the tail: append half a frame by hand.
	seg := filepath.Join(dir, "journal-000001.wal")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame([]byte(`{"type":"finished","job_id":"job-000001"}`))
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, stats := replayAll(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 clean ones", len(recs))
	}
	if stats.TornBytes == 0 {
		t.Error("torn tail not reported")
	}

	// Idempotence: the truncation happened on disk, so a second open
	// finds a clean journal.
	recs, stats = replayAll(t, dir)
	if len(recs) != 2 || stats.TornBytes != 0 || stats.Corrupt != 0 {
		t.Fatalf("second open after truncation: %d records, stats %+v", len(recs), stats)
	}
}

// TestJournalMidSegmentCorruption: a flipped bit in an *earlier*
// segment ends that segment's replay at the last clean frame but must
// not stop later segments from replaying — and must not truncate the
// damaged (non-final) segment.
func TestJournalMidSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		mustAppend(t, j, Record{Type: TypeAccepted, JobID: fmt.Sprintf("job-%06d", i)})
	}
	j.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}

	// Flip a payload byte in the first segment.
	first := filepath.Join(dir, segs[0].name)
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+2] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sizeBefore := int64(len(raw))

	recs, stats := replayAll(t, dir)
	if stats.Corrupt == 0 {
		t.Error("corruption not reported")
	}
	if len(recs) >= n {
		t.Fatalf("replayed %d records despite corruption", len(recs))
	}
	// Later segments' records must be present.
	lastID := recs[len(recs)-1].JobID
	if want := fmt.Sprintf("job-%06d", n-1); lastID != want {
		t.Errorf("last replayed record %q, want %q (later segments must still replay)", lastID, want)
	}
	fi, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != sizeBefore {
		t.Errorf("non-final segment was truncated (%d → %d bytes)", sizeBefore, fi.Size())
	}
}

// TestJournalIgnoresStrayNames: a backup or editor copy beside the log
// is not a segment, even where fmt.Sscanf would accept its name
// (trailing text, fewer digits). Only the real segment replays, the
// accepted record a copy holds enqueues nothing, and no copy is
// truncated, continued or sized as the final segment.
func TestJournalIgnoresStrayNames(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Type: TypeAccepted, JobID: "job-000001", Request: []byte(`{"a":1}`)})
	mustAppend(t, j, Record{Type: TypeFinished, JobID: "job-000001"})
	j.Close()

	accepted, err := json.Marshal(Record{Type: TypeAccepted, JobID: "job-stray", Request: []byte(`{"b":2}`)})
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(accepted)
	strays := map[string][]byte{
		"journal-000001.wal.bak": frame,
		"journal-000001.wal~":    frame,
		"journal-1.wal":          frame,
		// Sorts last by sequence and ends torn: as a segment it would be
		// truncated and continued.
		"journal-000002.walx": append(append([]byte(nil), frame...), frame[:len(frame)/2]...),
	}
	for name, raw := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	fold := NewFold()
	j, stats, err := Open(dir, Options{}, fold.Add)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Type: TypeFinished, JobID: "job-000002"})
	j.Close()
	if stats.Segments != 1 || stats.Records != 2 || stats.TornBytes != 0 || stats.Corrupt != 0 {
		t.Errorf("replay stats %+v, want the one real segment's 2 clean records", stats)
	}
	if orphans := fold.Orphans(); len(orphans) != 0 {
		t.Errorf("orphans %+v, want job-000001 finished and no stray's job to re-enqueue", orphans)
	}
	for name, want := range strays {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed: %d bytes, was %d", name, len(got), len(want))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(strays)+1 {
		t.Errorf("%d files in the journal directory, want the real segment and the %d strays", len(entries), len(strays))
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != 3 || recs[2].JobID != "job-000002" {
		t.Errorf("replayed %d records, want the append after reopening on the real segment", len(recs))
	}
}

// TestJournalSyncPolicies: every policy accepts appends; sync flushes
// on demand; an unknown policy string falls back to fsync-per-append
// behaviour via withDefaults validation at the serve layer (here we
// just pin that the two named policies work).
func TestJournalSyncPolicies(t *testing.T) {
	for _, policy := range []string{SyncAlways, SyncNone} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			j, _, err := Open(dir, Options{Sync: policy}, nil)
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, j, Record{Type: TypeAccepted, JobID: "job-000001"})
			mustAppend(t, j, Record{Type: TypeFinished, JobID: "job-000001"})
			if err := j.sync(); err != nil {
				t.Fatalf("explicit sync: %v", err)
			}
			j.Close()
			recs, _ := replayAll(t, dir)
			if len(recs) != 2 {
				t.Fatalf("replayed %d records, want 2", len(recs))
			}
		})
	}
}

// TestJournalAppendFaults: the journal.append fault site must fail the
// append (ActFail writes nothing) and tear frames (ActTorn leaves half
// a frame that the next open truncates).
func TestJournalAppendFaults(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Type: TypeAccepted, JobID: "job-000001"})

	ctx := faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: faults.SiteJournalAppend, Action: faults.ActFail, Times: 1}))
	if err := j.Append(ctx, Record{Type: TypeFinished, JobID: "job-000001"}); err == nil {
		t.Fatal("ActFail append did not error")
	}

	ctx = faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: faults.SiteJournalAppend, Action: faults.ActTorn, Times: 1}))
	if err := j.Append(ctx, Record{Type: TypeFinished, JobID: "job-000001"}); err == nil {
		t.Fatal("ActTorn append did not error")
	}
	j.Close()

	recs, stats := replayAll(t, dir)
	if len(recs) != 1 || recs[0].Type != TypeAccepted {
		t.Fatalf("replayed %d records (%+v), want only the clean accepted one", len(recs), recs)
	}
	if stats.TornBytes == 0 {
		t.Error("torn frame not truncated/reported")
	}
}

// TestFoldOrphans: a job is an orphan when no terminal record closed
// it. The fold keeps acceptance order and carries the latest accepted
// request forward; the "started", "requeued" and "checkpoint" records
// an earlier release wrote fold as non-terminal, a job whose own
// acceptance lands after its terminal record stays closed, and an id
// accepted again after its terminal record is in flight once more.
func TestFoldOrphans(t *testing.T) {
	f := NewFold()
	add := func(typ, id string, req string) {
		r := Record{Type: typ, JobID: id}
		if req != "" {
			r.Request = []byte(req)
		}
		f.Add(r)
	}
	add(TypeAccepted, "job-1", `{"a":1}`)
	add(TypeAccepted, "job-2", `{"b":2}`)
	add(TypeAccepted, "job-3", `{"c":3}`)
	add(TypeAccepted, "job-4", `{"d":4}`)
	add("started", "job-1", "")
	add("checkpoint", "job-1", "")
	add(TypeFinished, "job-2", "")
	add("started", "job-3", "")
	add("requeued", "job-3", "")
	add(TypeFailed, "job-4", "")
	add(TypeAccepted, "job-4", `{"e":5}`) // the id reissued after its job failed
	add(TypeFinished, "job-5", "")
	add(TypeAccepted, "job-5", `{"f":6}`) // journaled after the worker finished the job
	add("started", "job-6", "")
	add(TypeCancelled, "job-6", "")
	add(TypeAccepted, "job-6", `{"g":7}`)                    // likewise, behind an earlier release's started record
	f.Add(Record{Type: TypeAccepted, Request: []byte(`{}`)}) // no job id: ignored

	orphans := f.Orphans()
	want := []struct{ id, req string }{{"job-1", `{"a":1}`}, {"job-3", `{"c":3}`}, {"job-4", `{"e":5}`}}
	if len(orphans) != len(want) {
		t.Fatalf("orphans: %+v, want job-1, job-3 and job-4", orphans)
	}
	for i, w := range want {
		if orphans[i].JobID != w.id || string(orphans[i].Request) != w.req {
			t.Errorf("orphan %d is %s with request %s, want %s with %s", i, orphans[i].JobID, orphans[i].Request, w.id, w.req)
		}
	}
}

// TestBlobRoundTrip: a saved blob is published whole under its key,
// a re-save replaces it, no temp file is left beside it, and an empty
// key is refused.
func TestBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const key = "ckpt|fingerprint|precond=amg"
	for _, state := range []string{"state-v1", "state-v2"} {
		if err := j.SaveBlob(key, []byte(state)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(j.blobPath(key))
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte{0, 0, 0, byte(len(key))}, key...), "state-v2"...)
	if !bytes.Equal(raw, encodeFrame(body)) {
		t.Fatalf("published blob %q, want the framed re-saved state-v2", raw)
	}
	entries, err := os.ReadDir(filepath.Join(dir, blobDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("blob dir holds %d files, want the one published blob and no temp file", len(entries))
	}
	if err := j.SaveBlob("", nil); err == nil {
		t.Fatal("empty blob key accepted")
	}
}

// TestJournalContinuesLastSegment: re-opening a journal whose last
// segment still has room keeps appending to it rather than starting a
// new file per process lifetime.
func TestJournalContinuesLastSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, Record{Type: TypeAccepted, JobID: "job-000001"})
	j.Close()

	j2, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j2, Record{Type: TypeFinished, JobID: "job-000001"})
	j2.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want the restart to continue segment 1", len(segs))
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
}
