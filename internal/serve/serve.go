// Package serve is the long-lived analysis service of the repository:
// an HTTP JSON API (stdlib net/http only) that turns the one-shot
// analysis pipeline into a request-serving system. It exposes
//
//	POST   /v1/analyze    SPICE netlist or pgen-config body → IR-drop
//	                      map (numerical or fused mode), synchronous by
//	                      default, asynchronous with "async": true
//	GET    /v1/jobs/{id}  status/result of an async submission
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /healthz       liveness + queue/worker occupancy
//	GET    /metricsz      obs global counters and serve gauges as JSON
//
// Requests are admitted into a bounded job queue executed by a fixed
// set of workers, so worker concurrency controls how many analyses are
// in flight, each on its worker's goroutine from deck to map. Each job
// runs under a context.Context carrying its own obs.Recorder:
// cancellation (client disconnect, DELETE, or per-request timeout)
// stops the PCG iteration loop mid-solve via solver.PCGCtx, and the
// per-request run manifest — including the partial residual history of
// a cancelled solve — is attached to the job result. Shutdown drains in-flight solves before returning.
package serve

import (
	"context"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/core"
	"irfusion/internal/journal"
	"irfusion/internal/obs"
)

// Service-level counters, registered in the process-global obs
// registry so they surface in /metricsz, the expvar debug endpoint,
// and any session manifest.
var (
	cRequests  = obs.GlobalCounter("serve.http.requests")
	cSubmitted = obs.GlobalCounter("serve.jobs.submitted")
	cDone      = obs.GlobalCounter("serve.jobs.done")
	cFailed    = obs.GlobalCounter("serve.jobs.failed")
	cCancelled = obs.GlobalCounter("serve.jobs.cancelled")
	cRejected  = obs.GlobalCounter("serve.jobs.rejected")
	cPanics    = obs.GlobalCounter("serve.panics")
	// cRecovered counts orphaned jobs re-enqueued from the journal at
	// startup.
	cRecovered = obs.GlobalCounter("serve.recovered")
	// cJournalErr counts journal appends that failed; the service
	// keeps running (availability over durability) but the counter
	// makes the loss visible.
	cJournalErr = obs.GlobalCounter("serve.journal.errors")
)

// maxJobs bounds the job registry; the oldest finished jobs are
// evicted beyond it.
const maxJobs = 256

// defaultTimeout bounds each job's context when the request does not
// set timeout_ms.
const defaultTimeout = 2 * time.Minute

// MaxBodyBytes is the default request-body limit, which the cluster
// gateway enforces at the edge too.
const MaxBodyBytes = 8 << 20

// Config sizes the service. Zero values take the documented defaults.
type Config struct {
	// Name is the shard identity of this server in a cluster: it
	// prefixes every job id (so a gateway can route job lookups back
	// to the owning shard), and is reported by /healthz, /metricsz,
	// and every per-request run manifest. Empty means standalone — job
	// ids and reports are exactly as before clustering existed.
	Name string
	// Workers is the number of job-queue workers — the number of
	// analyses in flight at once, in every mode: fused inference runs
	// concurrently on the shared model too. Default 2.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 503. Default 16.
	QueueDepth int
	// MaxBodyBytes is the request-body admission limit enforced with
	// http.MaxBytesReader. Default MaxBodyBytes.
	MaxBodyBytes int64
	// MaxDesignSize caps the die size (and raster resolution) a
	// request may ask for, bounding per-job memory and CPU. Default
	// 256.
	MaxDesignSize int
	// Analyzer, when non-nil, enables "fused" mode with this trained
	// pipeline. The model instance is shared and only read: New puts it
	// in eval mode once, after which inference is reentrant. Do not
	// train or toggle the model while the server runs.
	Analyzer *core.Analyzer
	// JournalDir enables the write-ahead job journal: every job
	// lifecycle transition is appended there, and a restarted server
	// replays the directory to re-enqueue orphaned jobs, which re-run
	// their solves. Empty disables journaling.
	JournalDir string
	// JournalSync is the journal fsync policy (journal.SyncAlways or
	// SyncNone). Default SyncAlways.
	JournalSync string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = MaxBodyBytes
	}
	if c.MaxDesignSize <= 0 {
		c.MaxDesignSize = 256
	}
	return c
}

// Server is the analysis service. Construct with New, mount Handler
// on an http.Server (or use httptest in tests), and stop with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *job
	reg   *registry
	start time.Time
	cache *cache.Cache // per-process artifact cache
	seed  maphash.Seed // this process's secret body-memo seed

	journal     *journal.Journal // write-ahead job journal; nil when disabled
	journalErr  string           // journal open failure; serving continues without durability
	replayStats journal.ReplayStats
	crashed     atomic.Bool // crash() suppresses journal writes to simulate a hard kill

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	submitMu sync.Mutex // guards queue sends against Close
	draining bool

	inflight atomic.Int64
	workers  sync.WaitGroup
}

// New starts the worker goroutines and returns a ready service.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		queue: make(chan *job, cfg.QueueDepth),
		reg:   newRegistry(maxJobs, cfg.Name),
		start: time.Now(),
		// One cache per server, shared by every worker: the whole point
		// is that worker B's ECO re-check warm-starts off worker A's
		// solve. Cached hierarchies are cloned per use (see amg.Clone),
		// so sharing is race-free. It has the cache package's default
		// size and entry lifetime.
		cache:      cache.New(0, 0),
		seed:       maphash.MakeSeed(),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if cfg.Analyzer != nil {
		// Eval mode is what makes the workers' concurrent forward passes
		// read-only; Train and LoadAnalyzer already leave it set, a
		// hand-built analyzer may not.
		cfg.Analyzer.Model.SetTraining(false)
	}
	s.routes()
	if cfg.JournalDir != "" {
		// Open (and replay) the journal before the workers start:
		// recovered orphans are re-enqueued here, so the workers' first
		// pulls already see them — ahead of any new submissions.
		s.openJournal()
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler tree of the service.
func (s *Server) Handler() http.Handler { return s.mux }

// InFlight returns the number of jobs currently executing.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// worker drains the job queue until Close closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// submit admits a job into the bounded queue. It returns false when
// the queue is full or the server is draining — the caller answers
// 503 in both cases.
func (s *Server) submit(j *job) bool {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.draining {
		return false
	}
	select {
	case s.queue <- j:
		cSubmitted.Inc()
		return true
	default:
		return false
	}
}

// Close gracefully shuts the service down: new submissions are
// rejected immediately, queued and in-flight jobs are drained, and
// the call returns when every worker has exited. If ctx expires
// first, all remaining job contexts are cancelled — the solver loops
// notice within one iteration — and Close waits for the (now fast)
// drain to finish before returning ctx.Err().
func (s *Server) Close(ctx context.Context) error {
	s.submitMu.Lock()
	if !s.draining {
		close(s.queue)
	}
	s.draining = true
	s.submitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // force-cancel in-flight solves
		<-done
	}
	s.baseCancel()
	s.closeJournal()
	return err
}

// closeJournal syncs and closes the journal after the workers have
// drained (so every terminal record has been appended first).
func (s *Server) closeJournal() {
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			cJournalErr.Inc()
		}
	}
}

// crash simulates a hard process kill for restart testing: journal
// writes are suppressed first (a dying process never writes its
// terminal records — that asymmetry is exactly what replay recovers
// from), then Close under an expired context cancels every in-flight
// job and returns once the workers have exited. The journal directory
// is left holding exactly what a kill -9 mid-solve would: an accepted
// record with no terminal record after it.
func (s *Server) crash() {
	s.crashed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Close(ctx)
}
