package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"irfusion/internal/pgen"
)

// Status is the lifecycle state of a job.
type Status string

const (
	// statusQueued: accepted into the bounded queue, not yet picked up
	// by a worker.
	statusQueued Status = "queued"
	// statusRunning: a worker is executing the analysis.
	statusRunning Status = "running"
	// StatusDone: finished successfully; Result is populated.
	StatusDone Status = "done"
	// statusFailed: finished with an error (including timeouts).
	statusFailed Status = "failed"
	// statusCancelled: cancelled by DELETE /v1/jobs/{id}, a client
	// disconnect on a synchronous request, or server shutdown before
	// the job completed.
	statusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == statusFailed || s == statusCancelled
}

// job is one queued analysis. Its capitalized accessors are safe for
// concurrent use; the JSON view is produced by snapshot.
type job struct {
	id string
	*admission
	// A job carries either the memoised answer of a byte-identical
	// earlier body (memo) or the design to analyse and the body its memo
	// entry will hold. runJob drops both when the run ends: the registry
	// retains finished jobs, and a parsed deck pins its text.
	memo        *AnalyzeResult
	design      *pgen.Design
	body        []byte
	digest      uint64 // seeded maphash of the request body, the memo key
	handoffFrom string // shard this job failed over from; "" normally
	submitted   time.Time

	ctx       context.Context // job lifetime (timeout + server shutdown)
	cancel    context.CancelFunc
	done      chan struct{}
	cancelled atomic.Bool // requested via abort (vs timeout/failure)

	mu       sync.Mutex
	status   Status
	err      string
	errKind  string
	result   *AnalyzeResult
	started  time.Time
	finished time.Time
}

// Error kinds attached to failed jobs so clients (and the sync
// response path) can map failures to behaviour without parsing
// message text. The gateway relays an exhausted job's 503 instead of
// handing it off.
const (
	ErrKindExhausted = "ladder-exhausted" // every degradation rung failed
	errKindPanic     = "worker-panic"     // recovered panic in the worker
	errKindTimeout   = "timeout"          // job deadline expired
	errKindCancelled = "cancelled"        // cancelled via DELETE or disconnect
)

// Done returns a channel closed when the job reaches a terminal
// status.
func (j *job) Done() <-chan struct{} { return j.done }

// Status returns the current lifecycle state.
func (j *job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// abort requests cancellation: a queued job is finalized immediately
// (the worker will skip it), a running job has its context cancelled
// and finalizes when the solver notices. Cancelling a terminal job is
// a no-op. It reports whether the cancellation request took effect.
func (j *job) abort() bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelled.Store(true)
	if j.status == statusQueued {
		// Not yet started: finalize atomically with the queued check,
		// under the same mutex markRunning takes. Checking here and
		// finalizing after unlocking would race a worker picking the
		// job up in the window — the worker would then run (and
		// complete) a job this call already finalized as "cancelled
		// before start", silently dropping its result and manifest.
		j.finalizeLocked(statusCancelled, "cancelled before start", errKindCancelled, nil)
		j.mu.Unlock()
		j.cancel()
		return true
	}
	j.mu.Unlock()
	j.cancel()
	return true
}

// markRunning transitions queued → running. It returns false when the
// job was cancelled while waiting in the queue.
func (j *job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != statusQueued {
		return false
	}
	j.status = statusRunning
	j.started = time.Now()
	return true
}

// finalizeKind moves the job to a terminal status exactly once, with a
// machine-readable error kind, and closes Done.
func (j *job) finalizeKind(status Status, errMsg, kind string, result *AnalyzeResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finalizeLocked(status, errMsg, kind, result)
}

// finalizeLocked is the terminal transition; j.mu must be held.
func (j *job) finalizeLocked(status Status, errMsg, kind string, result *AnalyzeResult) {
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.err = errMsg
	j.errKind = kind
	j.result = result
	j.finished = time.Now()
	close(j.done)
}

// JobView is the JSON representation of a job returned by the API.
type JobView struct {
	ID          string         `json:"id"`
	Status      Status         `json:"status"`
	Error       string         `json:"error,omitempty"`
	ErrorKind   string         `json:"error_kind,omitempty"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Result      *AnalyzeResult `json:"result,omitempty"`
}

// snapshot returns a consistent JSON view of the job.
func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Status:      j.status,
		Error:       j.err,
		ErrorKind:   j.errKind,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// registry tracks jobs by id with bounded retention: once more than
// cap jobs are held, the oldest terminal jobs are evicted (live jobs
// are never evicted, so a full registry of in-flight work simply grows
// until jobs finish).
type registry struct {
	mu     sync.Mutex
	next   int64
	cap    int
	prefix string // shard-name job-id prefix; "" when standalone
	jobs   map[string]*job
	order  []string // insertion order for eviction
}

// newRegistry builds a registry whose ids carry the shard name when
// one is configured ("shard0-job-000001") so a cluster gateway can
// route job lookups to the owning shard by id alone. Standalone
// servers keep the bare "job-000001" form.
func newRegistry(capacity int, shard string) *registry {
	prefix := ""
	if shard != "" {
		prefix = shard + "-"
	}
	return &registry{cap: capacity, prefix: prefix, jobs: make(map[string]*job)}
}

// add registers a job under id, or under a fresh id when id is "". A
// journal-recovered job keeps its original id, so clients polling a
// pre-crash job id find it again.
func (r *registry) add(j *job, id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		r.next++
		id = fmt.Sprintf("%sjob-%06d", r.prefix, r.next)
	}
	j.id = id
	r.jobs[id] = j
	r.order = append(r.order, id)
	r.evictLocked()
}

// advancePast bumps the id counter past a journaled job id, so a fresh
// id never repeats one the journal already holds.
func (r *registry) advancePast(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := strings.LastIndex(id, "job-"); i >= 0 {
		if n, err := strconv.ParseInt(id[i+len("job-"):], 10, 64); err == nil && n > r.next {
			r.next = n
		}
	}
}

// get looks a job up by id.
func (r *registry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// counts tallies jobs per status for /healthz.
func (r *registry) counts() map[Status]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Status]int, 5)
	for _, j := range r.jobs {
		out[j.Status()]++
	}
	return out
}

func (r *registry) evictLocked() {
	for len(r.order) > r.cap {
		evicted := false
		for i, id := range r.order {
			if j := r.jobs[id]; j != nil && j.Status().Terminal() {
				delete(r.jobs, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is live
		}
	}
}
