package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/journal"
)

// Journal glue: the serving layer's half of crash durability. The
// journal package owns the on-disk write-ahead log; this file decides
// *what* gets journaled (one record per job lifecycle transition, one
// blob per solver checkpoint) and how a restarted process turns the
// replayed history back into queued jobs. Checkpoints have no journal
// record of their own: a blob's key is a pure function of the request
// the accepted record already holds (checkpointKey), so recovery
// derives it — a blob can never be durable yet unknown to the journal.

// Provenance values recorded in a manifest's resume section
// (obs.ResumeSection.From) by this layer. A gateway handoff carries
// none: every server has its own cache, so a ring successor can only
// resume a checkpoint of its own.
const (
	fromRestart = "restart" // re-enqueued by journal replay after a process restart
	fromRequeue = "requeue" // re-enqueued on the same process after a worker panic
)

// openJournal opens (and replays) the configured journal directory.
// Failure to open never prevents startup — the server runs without
// durability and reports the problem on /healthz — because a service
// that refuses to start over a damaged journal turns one crash into
// an outage.
func (s *Server) openJournal() {
	fold := journal.NewFold()
	jr, stats, err := journal.Open(s.cfg.JournalDir, journal.Options{Sync: s.cfg.JournalSync}, fold.Add)
	if err != nil {
		s.journalErr = err.Error()
		cJournalErr.Inc()
		return
	}
	s.journal = jr
	s.replayStats = stats
	s.recoverOrphans(fold)
}

// recoverOrphans re-enqueues every job whose journal history never
// reached a terminal record, under its original id, in acceptance
// order. A job whose solve left a checkpoint blob first has it
// reloaded into the artifact cache so the resume rung continues the
// solve from where the crashed process left it. Replay is idempotent:
// finished, cancelled, and failed jobs are skipped by the fold, and a
// job this pass fails to recover gets a terminal record so the next
// restart skips it too.
func (s *Server) recoverOrphans(fold *journal.Fold) {
	for _, st := range fold.Orphans() {
		if len(st.Request) == 0 {
			continue // accepted record never made it; nothing to re-run
		}
		// Not the strict decoder of handleAnalyze: a record written by an
		// earlier binary may carry a field since retired ("precision",
		// "format"), and its job is still owed an answer.
		var req AnalyzeRequest
		if err := json.Unmarshal(st.Request, &req); err != nil {
			s.journalAppend(s.baseCtx, journal.Record{
				Type: journal.TypeFailed, JobID: st.JobID,
				Detail: fmt.Sprintf("recovery: undecodable request: %v", err),
			})
			continue
		}
		adm, design, err := s.admit(&req)
		if err != nil {
			s.journalAppend(s.baseCtx, journal.Record{
				Type: journal.TypeFailed, JobID: st.JobID,
				Detail: fmt.Sprintf("recovery: %v", err),
			})
			continue
		}
		ctx, cancel := s.jobContext(req.TimeoutMS)
		// The accepted record holds the client's body, so the recovered
		// job files its answer under the memo key a repeat of that body
		// looks up (json.Marshal compacted it: a body sent with
		// insignificant whitespace repeats under another key).
		sum := sha256.Sum256(st.Request)
		j := &job{
			admission:  adm,
			digest:     hex.EncodeToString(sum[:]),
			submitted:  time.Now(),
			cancel:     cancel,
			done:       make(chan struct{}),
			status:     statusQueued,
			ctx:        ctx,
			design:     design,
			resumeFrom: fromRestart,
		}
		if s.cache != nil {
			j.hasBlob = s.restoreCheckpoint(checkpointKey(&adm.req, adm.fp))
		}
		s.reg.addWithID(j, st.JobID)
		if !s.submit(j) {
			cancel()
			j.finalizeKind(statusFailed, "recovery: queue full", "", nil)
			s.journalAppend(s.baseCtx, journal.Record{
				Type: journal.TypeFailed, JobID: st.JobID, Detail: "recovery: queue full",
			})
			continue
		}
		cRecovered.Inc()
		cRequeues.Inc()
		s.journalAppend(s.baseCtx, journal.Record{
			Type: journal.TypeRequeued, JobID: st.JobID, Detail: fromRestart,
		})
	}
}

// checkpointKey is the blob (and cache) key of the checkpoints a
// request's solve writes: fingerprint ⊕ request shape, the same
// expression plan.Numerical stores them under.
func checkpointKey(req *AnalyzeRequest, fp string) string {
	return cache.CheckpointKey(fp, cache.CheckpointShape(req.Precond, "", "", req.Iters))
}

// restoreCheckpoint reloads the checkpoint blob stored under key, if
// any, into the artifact cache so the resume rung (plan.RungAMGResume)
// finds it when the recovered job re-runs, and reports whether a blob
// exists. No blob is the common case (the job died before its first
// checkpoint, or never checkpoints); damage — CRC mismatch,
// undecodable artifact — is counted and otherwise ignored: either way
// the job simply solves cold. Restoring is not saving: the artifact
// goes straight into the cache, past the checkpoint.save fault site, so
// a save fault still installed cannot stall or drop recovery.
func (s *Server) restoreCheckpoint(key string) bool {
	data, err := s.journal.LoadBlob(key)
	if errors.Is(err, journal.ErrNoBlob) {
		return false
	}
	if err != nil {
		cJournalErr.Inc()
		return true
	}
	art, err := cache.DecodeCheckpoint(data)
	if err != nil {
		cJournalErr.Inc()
		return true
	}
	s.cache.Put(cache.CheckpointKey(art.Fingerprint, art.Shape), art, art.SizeBytes(), "")
	return true
}

// journalAppend writes one lifecycle record; ctx scopes fault
// injection (the journal.append site). Append failures are counted,
// not propagated: the serving path prefers availability over
// durability, and the loss is visible in serve.journal.errors.
func (s *Server) journalAppend(ctx context.Context, rec journal.Record) {
	if s.journal == nil || s.crashed.Load() {
		return
	}
	if err := s.journal.Append(ctx, rec); err != nil {
		cJournalErr.Inc()
	}
}

// journalTerminal records a job's terminal transition. A finished job
// that left a checkpoint blob removes it — no restart will resume a
// closed job — so the blob directory does not grow with the jobs
// served. The key is fingerprint ⊕ request shape, not the job: two
// in-flight jobs with the same deck and shape share one blob, and the
// first to finish takes it from the other, which then re-solves cold
// if the process crashes before it checkpoints again. Failed and
// cancelled jobs leave their blob to the next job of that key.
func (s *Server) journalTerminal(j *job, typ, detail string) {
	s.journalAppend(j.ctx, journal.Record{Type: typ, JobID: j.id, Detail: detail})
	if typ != journal.TypeFinished || !j.hasBlob || s.crashed.Load() {
		return
	}
	if err := s.journal.DropBlob(checkpointKey(&j.req, j.fp)); err != nil {
		cJournalErr.Inc()
	}
}

// checkpointNotify returns the durable-persistence hook handed to the
// core analyzer for job j: each solver checkpoint replaces the solve's
// blob. Nil when the journal is off — checkpoints then live only in
// the in-process cache (still enough for same-process requeue).
func (s *Server) checkpointNotify(j *job) func(key string, encoded []byte) {
	if s.journal == nil {
		return nil
	}
	return func(key string, encoded []byte) {
		if s.crashed.Load() {
			return
		}
		if err := s.journal.SaveBlob(key, encoded); err != nil {
			cJournalErr.Inc()
			return
		}
		j.hasBlob = true
	}
}
