// Package journal is the write-ahead job journal of the serving
// layer: a stdlib-only, append-only log of job lifecycle records that
// survives process crashes. A serving process appends two records per
// job: accepted, carrying the request, and one terminal record
// (finished, cancelled or failed). After a crash, replaying the journal
// tells the restarted process exactly which jobs were in flight, and
// the accepted record's request is enough to run each one again.
//
// # On-disk format
//
// A journal directory holds numbered segment files
// ("journal-000001.wal", "journal-000002.wal", ...). Each segment is a
// sequence of frames:
//
//	[4B big-endian payload length][4B IEEE CRC32 of payload][payload]
//
// The payload is the JSON encoding of one Record. Appends go to the
// highest-numbered segment; when it would grow past SegmentBytes a new
// segment is started. Nothing is ever rewritten in place, so the only
// corruption a crash can produce is a torn final frame — which replay
// detects (short frame or CRC mismatch), truncates, and reports,
// never refusing to start. Corruption earlier in a segment (bit rot,
// manual editing) ends that segment's replay at the last clean frame;
// the damage is counted in ReplayStats but later segments still
// replay, because a fleet restart must come back up with whatever
// history is readable.
//
// # Durability policy
//
// The Sync option selects when appends reach the disk platter:
// SyncAlways fsyncs after every append (a crashed process loses
// nothing it acknowledged) and SyncNone leaves flushing to the OS.
package journal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"irfusion/internal/faults"
)

// Record types, the lifecycle vocabulary of the journal. Replay folds
// the records of one JobID in order (Fold.Add): a terminal record
// (TypeFinished/TypeCancelled/TypeFailed) closes the job, and a job
// left open is an orphan to re-enqueue.
const (
	TypeAccepted  = "accepted"  // job admitted into the queue (carries the request)
	TypeFinished  = "finished"  // job completed successfully
	TypeCancelled = "cancelled" // job cancelled by the client or shutdown
	TypeFailed    = "failed"    // job failed terminally (carries the error kind)
)

// Record is one journal entry. Request is carried only by
// TypeAccepted (the full submission body, so replay can re-enqueue the
// job). Journals written by earlier releases also hold "started",
// "requeued" and "checkpoint" records, and checkpoint_key fields;
// replay folds the records as non-terminal and ignores the field.
type Record struct {
	Type    string          `json:"type"`
	JobID   string          `json:"job_id"`
	Time    time.Time       `json:"time"`
	Request json.RawMessage `json:"request,omitempty"`
	Detail  string          `json:"detail,omitempty"`
}

// Terminal reports whether the record type ends a job's lifecycle.
func (r *Record) Terminal() bool {
	switch r.Type {
	case TypeFinished, TypeCancelled, TypeFailed:
		return true
	}
	return false
}

// Sync policies of Options.Sync.
const (
	SyncAlways = "always" // fsync after every append
	SyncNone   = "none"   // never fsync; the OS flushes on its schedule
)

// Options tunes a journal. The zero value takes the defaults noted on
// each field.
type Options struct {
	// SegmentBytes bounds one segment file; appends that would exceed
	// it rotate to a fresh segment. Default 1 MiB.
	SegmentBytes int64
	// Sync is the fsync policy (SyncAlways or SyncNone). Default
	// SyncAlways: a job journal is small-volume and its whole point is
	// surviving a crash.
	Sync string
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.Sync == "" {
		o.Sync = SyncAlways
	}
	return o
}

// ReplayStats reports what Open found when replaying the directory.
type ReplayStats struct {
	Segments  int   // segment files scanned
	Records   int   // clean records replayed
	TornBytes int64 // bytes truncated off the final segment's torn tail
	Corrupt   int   // segments whose replay ended early at a bad frame
}

// frameHeader is [length][crc], both uint32 big-endian.
const frameHeader = 8

// maxPayload bounds one record's encoded size; a length field beyond
// it is treated as corruption rather than an allocation request.
const maxPayload = 8 << 20

// errClosed is returned by Append after Close.
var errClosed = errors.New("journal: closed")

// Journal is an open write-ahead journal. All methods are safe for
// concurrent use.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    int   // sequence number of the open segment
	size   int64 // bytes written to the open segment
	closed bool
}

// Open opens (creating if needed) the journal in dir, replays every
// readable record through replay (which may be nil), and returns the
// journal positioned for appending. A torn tail on the final segment
// is truncated; corruption never makes Open fail — the stats say what
// was lost. Only real I/O problems (permissions, disk errors) error.
func Open(dir string, opts Options, replay func(Record)) (*Journal, ReplayStats, error) {
	opts = opts.withDefaults()
	var stats ReplayStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("journal: create dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	stats.Segments = len(segs)
	for i, seg := range segs {
		final := i == len(segs)-1
		if err := replaySegment(filepath.Join(dir, seg.name), final, replay, &stats); err != nil {
			return nil, stats, err
		}
	}
	j := &Journal{dir: dir, opts: opts}
	// Continue the last segment when it has room, else start the next.
	seq := 1
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		fi, err := os.Stat(filepath.Join(dir, last.name))
		if err != nil {
			return nil, stats, fmt.Errorf("journal: stat %s: %w", last.name, err)
		}
		if fi.Size() < opts.SegmentBytes {
			seq = last.seq
		} else {
			seq = last.seq + 1
		}
	}
	if err := j.openSegment(seq); err != nil {
		return nil, stats, err
	}
	return j, stats, nil
}

type segment struct {
	name string
	seq  int
}

// listSegments returns the files named as openSegment names, in sequence order.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: read dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "journal-%06d.wal", &seq); err == nil && seq > 0 && e.Name() == fmt.Sprintf("journal-%06d.wal", seq) {
			segs = append(segs, segment{name: e.Name(), seq: seq})
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].seq < segs[k].seq })
	return segs, nil
}

// replaySegment streams one segment's frames through replay. On a bad
// frame (short read, oversized length, CRC mismatch, or undecodable
// payload) it stops at the last clean frame; when the segment is the
// journal's final one the file is truncated there so the next append
// lands on a clean boundary and re-opening is idempotent.
func replaySegment(path string, final bool, replay func(Record), stats *ReplayStats) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	defer f.Close()
	var clean int64 // offset after the last fully-valid frame
	var hdr [frameHeader]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end of segment
			}
			stats.Corrupt++
			break // torn header
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxPayload {
			stats.Corrupt++
			break
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(f, buf); err != nil {
			stats.Corrupt++
			break // torn payload
		}
		if crc32.ChecksumIEEE(buf) != want {
			stats.Corrupt++
			break
		}
		var rec Record
		if err := json.Unmarshal(buf, &rec); err != nil {
			stats.Corrupt++
			break
		}
		clean += frameHeader + int64(length)
		stats.Records++
		if replay != nil {
			replay(rec)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat segment: %w", err)
	}
	if torn := fi.Size() - clean; torn > 0 && final {
		stats.TornBytes += torn
		if err := os.Truncate(path, clean); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	return nil
}

// openSegment opens segment seq for appending; j.mu need not be held
// (only Open calls it before the journal is shared).
func (j *Journal) openSegment(seq int) error {
	name := filepath.Join(j.dir, fmt.Sprintf("journal-%06d.wal", seq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment for append: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: stat segment: %w", err)
	}
	j.f, j.seq, j.size = f, seq, fi.Size()
	return nil
}

// Append encodes rec as one frame and writes it to the active
// segment, rotating first when the segment is full, then applies the
// sync policy. The faults site journal.append rehearses failure modes:
// ActFail fails the append without writing, ActTorn writes a
// deliberately truncated frame (simulating a crash mid-write) and
// reports an error — replay must truncate it — and ActLatency and
// ActStall hold the append back (a stall until ctx ends) before it
// writes, as a slow encoder would.
func (j *Journal) Append(ctx context.Context, rec Record) error {
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode record: %w", err)
	}
	frame := encodeFrame(payload)

	var torn bool
	if f := faults.ActiveOr(ctx).Fire(faults.SiteJournalAppend, rec.Type); f != nil {
		switch f.Action {
		case faults.ActFail:
			return fmt.Errorf("journal: append %s for %s: %w", rec.Type, rec.JobID, f.Error())
		case faults.ActTorn:
			torn = true
		case faults.ActLatency, faults.ActStall:
			_ = f.Sleep(ctx) // the append proceeds once ctx ends
		}
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	if j.size > 0 && j.size+int64(len(frame)) > j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if torn {
		// Crash simulation: half a frame reaches the disk, then the
		// "process dies". Sync so the torn bytes are really there for
		// the restart to find, and surface an error like a real torn
		// write would (the caller never got an acknowledgement).
		cut := frame[:frameHeader+len(payload)/2]
		if _, werr := j.f.Write(cut); werr != nil {
			return fmt.Errorf("journal: torn write: %w", werr)
		}
		j.size += int64(len(cut))
		//irfusion:lock-ok the WAL contract serializes appends with fsync under j.mu; a concurrent append observing a half-synced frame would corrupt the segment
		_ = j.f.Sync()
		return fmt.Errorf("journal: append %s for %s: injected torn write", rec.Type, rec.JobID)
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: write frame: %w", err)
	}
	j.size += int64(len(frame))
	return j.syncLocked()
}

// encodeFrame builds [len][crc][payload].
//
//irfusion:hotpath-allow frames are built on the job-lifecycle path, not a solver inner loop; crc32 and append are the whole job
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame
}

// syncLocked applies the sync policy after an append; j.mu held.
func (j *Journal) syncLocked() error {
	if j.opts.Sync == SyncNone {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// rotateLocked closes the active segment and opens the next; j.mu held.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync before rotate: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	return j.openSegment(j.seq + 1)
}

// sync forces outstanding appends to disk regardless of policy.
func (j *Journal) sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	//irfusion:lock-ok sync must exclude concurrent appends so the durability point it reports covers every acknowledged record
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Further Appends return
// errClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	//irfusion:lock-ok final fsync must run after closed is set and before the fd closes; appends are already fenced off by errClosed
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: fsync on close: %w", err)
	}
	return j.f.Close()
}

// JobState is one job to re-enqueue: its id and the request of its
// latest accepted record.
type JobState struct {
	JobID   string
	Request json.RawMessage
	open    bool // no terminal record closed the job
}

// Fold accumulates replayed records into the jobs no terminal record
// closed, in first-record order — the order orphans should be
// re-enqueued in.
type Fold struct {
	order []string
	jobs  map[string]*JobState
}

// NewFold returns an empty accumulator; pass its Add to Open.
func NewFold() *Fold {
	return &Fold{jobs: make(map[string]*JobState)}
}

// Add folds one record (usable directly as Open's replay callback).
func (f *Fold) Add(rec Record) {
	if rec.JobID == "" {
		return
	}
	st, ok := f.jobs[rec.JobID]
	if !ok {
		st = &JobState{JobID: rec.JobID, open: true}
		f.jobs[rec.JobID] = st
		f.order = append(f.order, rec.JobID)
	}
	switch {
	case rec.Terminal():
		st.open = false
	case rec.Type == TypeAccepted && len(rec.Request) > 0:
		// A job's own acceptance may land after its terminal record (the
		// worker can finish before the handler journals the request), so
		// only a second one, an id an earlier release reissued, reopens it.
		if st.Request != nil {
			st.open = true
		}
		st.Request = rec.Request
	}
}

// Orphans returns the jobs no terminal record closed — the ones a
// restarted server must re-enqueue — in first-record order.
func (f *Fold) Orphans() []*JobState {
	var out []*JobState
	for _, id := range f.order {
		if st := f.jobs[id]; st.open {
			out = append(out, st)
		}
	}
	return out
}
