package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"time"

	"irfusion/internal/journal"
)

// Journal glue: the serving layer's half of crash durability. The
// journal package owns the on-disk write-ahead log; this file decides
// *what* gets journaled (an accepted record and a terminal record per
// job) and how a restarted process turns the replayed history back
// into queued jobs. A recovered job re-runs its solve the way any
// request does: cold, or warm off a cached donor. A checkpoints/
// directory an older release left beside the log is inert; nothing
// reads it.

// openJournal opens (and replays) the configured journal directory.
// Failure to open never prevents startup — the server runs without
// durability and reports the problem on /healthz — because a service
// that refuses to start over a damaged journal turns one crash into
// an outage.
func (s *Server) openJournal() {
	fold := journal.NewFold()
	jr, stats, err := journal.Open(s.cfg.JournalDir, journal.Options{Sync: s.cfg.JournalSync}, func(rec journal.Record) {
		fold.Add(rec)
		s.reg.advancePast(rec.JobID) // a fresh id never repeats a journaled one
	})
	if err != nil {
		s.journalErr = err.Error()
		cJournalErr.Inc()
		return
	}
	s.journal = jr
	s.replayStats = stats
	s.recoverOrphans(fold)
}

// recoverOrphans re-enqueues every job no terminal record closed,
// under its original id, in acceptance order. Replay is idempotent:
// finished, cancelled, and failed jobs are skipped by the fold, a
// recovered job journals nothing until its terminal record, and a job
// this pass fails to recover gets a terminal record so the next
// restart skips it too.
func (s *Server) recoverOrphans(fold *journal.Fold) {
	for _, st := range fold.Orphans() {
		if len(st.Request) == 0 {
			continue // accepted record never made it; nothing to re-run
		}
		// Not the strict decoder of handleAnalyze: a record written by an
		// earlier binary may carry a field since retired ("precision",
		// "format"), and its job is still owed an answer.
		fail := func(detail string) {
			s.journalAppend(s.baseCtx, journal.Record{Type: journal.TypeFailed, JobID: st.JobID, Detail: "recovery: " + detail})
		}
		var req AnalyzeRequest
		if err := json.Unmarshal(st.Request, &req); err != nil {
			fail(fmt.Sprintf("undecodable request: %v", err))
			continue
		}
		adm, design, err := s.admit(&req)
		if err != nil {
			fail(err.Error())
			continue
		}
		ctx, cancel := s.jobContext(req.TimeoutMS)
		// The accepted record holds the client's body, so the recovered
		// job files its answer with those bytes, under the memo key a
		// repeat of that body looks up (json.Marshal compacted it: a body
		// sent with insignificant whitespace repeats as another body).
		j := &job{
			admission: adm,
			body:      st.Request,
			digest:    maphash.Bytes(s.seed, st.Request),
			submitted: time.Now(),
			cancel:    cancel,
			done:      make(chan struct{}),
			status:    statusQueued,
			ctx:       ctx,
			design:    design,
		}
		s.reg.add(j, st.JobID)
		if !s.submit(j) {
			cancel()
			j.finalizeKind(statusFailed, "recovery: queue full", "", nil)
			fail("queue full")
			continue
		}
		cRecovered.Inc()
	}
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

// journalTerminal records a job's terminal transition.
func (s *Server) journalTerminal(j *job, typ, detail string) {
	s.journalAppend(j.ctx, journal.Record{Type: typ, JobID: j.id, Detail: detail})
}
