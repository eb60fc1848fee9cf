// Package obs is the dependency-free observability layer of the
// IR-Fusion pipeline. It makes the fused numerical+ML run measurable
// instead of a black box: where the wall time goes stage by stage, how
// the PCG residual actually converged, and what the AMG setup produced.
//
// The package has three parts:
//
//   - A per-run Recorder of named counters, gauges, labeled solver
//     convergence traces, per-epoch training records, and monotonic
//     wall-clock stage timers. Every Recorder method is safe for concurrent use and
//     safe on a nil receiver, so instrumented code calls it
//     unconditionally: when no run is being observed, FromContext
//     returns nil and the instrumentation reduces to a pointer test.
//
//   - Process-wide global counters (GlobalCounter): single atomic
//     adds, cheap enough to stay permanently enabled inside hot
//     kernels (nn.gemm_calls). They describe the process, not a run:
//     /metricsz and expvar read them, and a CLI front end (one process,
//     one run) adds them to its manifest at finish.
//
//   - Run manifests (manifest.go): one structured JSON document per
//     Analyzer/Trainer run, plus an optional debug HTTP endpoint
//     (debug.go) exposing expvar and pprof.
//
// obs imports only the standard library; every other internal package
// may import it without creating a cycle.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter, the unit of
// the process-wide (global) metric registry.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
//
//irfusion:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//irfusion:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
//
//irfusion:hotpath
func (c *Counter) Load() int64 { return c.v.Load() }

var (
	globalMu sync.Mutex
	globals  = map[string]*Counter{}
)

// GlobalCounter returns the process-wide counter registered under
// name, creating it on first use. The returned pointer is stable for
// the process lifetime; hot paths should capture it in a package
// variable so each event costs one atomic add.
func GlobalCounter(name string) *Counter {
	globalMu.Lock()
	defer globalMu.Unlock()
	c, ok := globals[name]
	if !ok {
		c = &Counter{}
		globals[name] = c
	}
	return c
}

// CounterValue returns the current value of the named global counter,
// or 0 when it was never registered.
func CounterValue(name string) int64 {
	globalMu.Lock()
	c := globals[name]
	globalMu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// GlobalCounters returns a snapshot of every registered global
// counter.
func GlobalCounters() map[string]int64 {
	globalMu.Lock()
	defer globalMu.Unlock()
	out := make(map[string]int64, len(globals))
	for name, c := range globals {
		out[name] = c.Load()
	}
	return out
}

// StageRecord aggregates every completed timer of one stage name: how
// often the stage ran and its total wall time.
type StageRecord struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// SolveRecord is one labeled Krylov solve: iteration count, final
// relative residual, and the full per-iteration residual history (the
// convergence trace the fusion trade-off study reads).
type SolveRecord struct {
	Label      string    `json:"label"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
	Converged  bool      `json:"converged"`
	Seconds    float64   `json:"seconds"`
	History    []float64 `json:"history,omitempty"`
}

// DegradationAttempt is the one try of one ladder rung: which rung,
// and the error that ended it (empty on success). Older manifests also
// carry "attempt", "backoff_seconds" and "skipped" keys in each
// attempt; decoding ignores them, so those manifests still validate.
type DegradationAttempt struct {
	Rung  string `json:"rung"`
	Error string `json:"error,omitempty"`
}

// Degradation records how one laddered operation produced its answer:
// the component that ran the ladder, the rung that finally served
// (empty when the ladder was exhausted), its index (0 = the preferred
// backend, >0 = a fallback), and the attempt trail, one entry per rung
// tried. A served response therefore always says *how* its answer was
// produced — the manifest contract the resilience layer adds to
// irfusion/run-manifest/v1 (optional key, no version bump).
type Degradation struct {
	Component string               `json:"component"`
	Rung      string               `json:"rung,omitempty"`
	RungIndex int                  `json:"rung_index"`
	Exhausted bool                 `json:"exhausted,omitempty"`
	Attempts  []DegradationAttempt `json:"attempts"`
}

// Degraded reports whether the record describes anything other than a
// clean first-attempt success on the preferred rung.
func (d *Degradation) Degraded() bool {
	if d.RungIndex > 0 || d.Exhausted {
		return true
	}
	for _, a := range d.Attempts {
		if a.Error != "" {
			return true
		}
	}
	return false
}

// EpochRecord is one training epoch: loss trajectory, learning rate,
// curriculum subset size, and timing.
type EpochRecord struct {
	Epoch   int     `json:"epoch"`
	Loss    float64 `json:"loss"`
	LR      float64 `json:"lr"`
	Samples int     `json:"samples"`
	Batches int     `json:"batches"`
	Seconds float64 `json:"seconds"`
}

// Recorder accumulates the observations of one run. The zero value is
// not usable; construct with NewRecorder. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Recorder struct {
	start time.Time

	mu         sync.Mutex
	counters   map[string]int64
	gauges     map[string]float64
	stageOrder []string
	stages     map[string]*StageRecord
	solves     []SolveRecord
	epochs     []EpochRecord
	degrads    []Degradation
	cacheEvts  []CacheEvent
}

// NewRecorder returns an empty recorder whose run starts now.
func NewRecorder() *Recorder {
	return &Recorder{
		start:    time.Now(),
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		stages:   map[string]*StageRecord{},
	}
}

// Add increments a per-run counter.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge sets a per-run gauge to v (last write wins).
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Stage is an in-flight stage timer returned by StartStage. End
// completes it; a nil Stage (from a nil Recorder) is inert.
type Stage struct {
	r     *Recorder
	name  string
	start time.Time
}

// StartStage begins a named stage timer. Stages of the same name
// aggregate into one StageRecord (count, total seconds).
func (r *Recorder) StartStage(name string) *Stage {
	if r == nil {
		return nil
	}
	return &Stage{r: r, name: name, start: time.Now()}
}

// End completes the stage and folds it into the recorder.
func (s *Stage) End() {
	if s == nil {
		return
	}
	s.r.recordStage(s.name, time.Since(s.start))
}

func (r *Recorder) recordStage(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sr, ok := r.stages[name]
	if !ok {
		sr = &StageRecord{Name: name}
		r.stages[name] = sr
		r.stageOrder = append(r.stageOrder, name)
	}
	sr.Count++
	sr.Seconds += d.Seconds()
}

// RecordSolve appends a labeled solver convergence trace. The history
// slice is copied, so callers may keep mutating theirs.
func (r *Recorder) RecordSolve(s SolveRecord) {
	if r == nil {
		return
	}
	s.History = append([]float64(nil), s.History...)
	for i, v := range s.History {
		s.History[i] = sanitize(v)
	}
	s.Residual = sanitize(s.Residual)
	r.mu.Lock()
	r.solves = append(r.solves, s)
	r.mu.Unlock()
}

// RecordDegradation appends a degradation record (ladder outcome).
// The attempts slice is copied, so callers may keep mutating theirs.
func (r *Recorder) RecordDegradation(d Degradation) {
	if r == nil {
		return
	}
	d.Attempts = append([]DegradationAttempt(nil), d.Attempts...)
	r.mu.Lock()
	r.degrads = append(r.degrads, d)
	r.mu.Unlock()
}

// Cache-event outcomes, the vocabulary of CacheEvent.Outcome. The
// artifact-cache layer records one event per cache interaction of a
// pipeline stage; manifest validation rejects anything else.
const (
	CacheHit   = "hit"   // exact fingerprint hit, guard passed
	CacheMiss  = "miss"  // no usable entry; cold path taken
	CacheWarm  = "warm"  // neighbor warm start (delta-solve) taken
	CacheStore = "store" // freshly computed artifact stored
	// cacheStale (cached state rejected by a guard) is recorded by no
	// stage since the resume rung went; manifests an older release
	// wrote still carry it and still validate.
	cacheStale = "stale"
)

// CacheEvent records one artifact-cache interaction of a pipeline
// stage: which stage consulted the cache, what came of it, the
// (abbreviated) content address involved, and — for warm starts — the
// matrix-delta fraction against the donor entry.
type CacheEvent struct {
	Stage   string  `json:"stage"`
	Outcome string  `json:"outcome"`
	Key     string  `json:"key,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// RecordCacheEvent appends a cache-interaction record.
func (r *Recorder) RecordCacheEvent(e CacheEvent) {
	if r == nil {
		return
	}
	e.Delta = sanitize(e.Delta)
	r.mu.Lock()
	r.cacheEvts = append(r.cacheEvts, e)
	r.mu.Unlock()
}

// RecordEpoch appends a training-epoch record.
func (r *Recorder) RecordEpoch(e EpochRecord) {
	if r == nil {
		return
	}
	e.Loss = sanitize(e.Loss)
	r.mu.Lock()
	r.epochs = append(r.epochs, e)
	r.mu.Unlock()
}

// sanitize maps non-finite values onto JSON-representable sentinels:
// NaN becomes -1 (no valid residual/loss is negative) and ±Inf
// saturates to ±MaxFloat64, so a diverged run still produces a valid
// manifest instead of a json.Marshal error.
func sanitize(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return -1
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	default:
		return v
	}
}

// sortedKeys returns the keys of a map in sorted order (manifest
// determinism for maps rendered as JSON arrays or summaries).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
