// Package plan is the one solve path of the repository: the rung table
// (rungs.go — every way a linear system gets an answer, each a plain
// function of one explicit solve state), the policy that turns a
// request into an ordered list of rung names, and the degradation
// ladder that runs such a list (this file). core's analyzers and the
// dataset builder are all lists of rung names over it, so the rough
// solve that builds training samples and the one that serves requests
// are the same code.
//
// The ladder: IR-Fusion's premise is tolerance to imprecision — a
// deliberately rough numerical solve is repaired by the ML stage — so
// when a solve backend misbehaves the pipeline should *degrade* to a
// cheaper/stochastic backend, not die. This file implements the
// generic machinery: ordered backend rungs with bounded retries,
// deterministic exponential backoff with jitter for transient faults,
// per-rung circuit breakers so a repeatedly-failing backend stops
// being attempted under load, and a Degradation record in the run
// manifest saying exactly how the answer was produced.
package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"irfusion/internal/obs"
	"irfusion/internal/solver"
)

// ErrLadderExhausted is returned when every rung of a degradation
// ladder failed (or was skipped by an open breaker). The serving
// layer maps it to a structured 503 with a Retry-After hint.
var ErrLadderExhausted = errors.New("plan: degradation ladder exhausted")

// ResilienceOptions tunes the ladder runner. The zero value means
// "defaults" (two attempts per rung, 5ms..100ms backoff, jitter seed
// 1, no breakers).
type ResilienceOptions struct {
	// MaxAttempts is the number of tries per rung for *retryable*
	// (transient) errors; non-retryable errors move to the next rung
	// immediately. Default 2.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the exponential backoff slept
	// between retries of one rung: attempt k waits
	// min(BackoffBase·2^(k−1), BackoffMax) scaled by jitter in
	// [0.5, 1). Defaults 5ms and 100ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter generator, making retry
	// timing reproducible in tests. Default 1.
	JitterSeed int64
	// Breakers, when non-nil, gates each rung through its named
	// circuit breaker: an open breaker skips the rung without
	// attempting it (recorded as a skipped attempt).
	Breakers *BreakerSet
}

func (o ResilienceOptions) withDefaults() ResilienceOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	return o
}

// BackoffDelay computes the sleep before retry number attempt (1 =
// the first retry): exponential in the attempt, capped, and scaled by
// a jitter factor drawn from rng in [0.5, 1) so concurrent retriers
// decorrelate. Deterministic for a given rng state.
func BackoffDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	jitter := 0.5 + 0.5*rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// LadderRung is one backend of a degradation ladder. Run must be
// restartable: it is called once per attempt and must reset any
// output state poisoned by a previous failed attempt.
type LadderRung struct {
	Name string
	Run  func(ctx context.Context) error
}

// classifyError buckets a rung failure:
//
//   - abort: cancellation/deadline — stop the whole ladder, nothing
//     downstream can help.
//   - retryable: numerical breakdown (solver.ErrBreakdown) — a
//     transient-looking failure worth retrying on the same rung with
//     backoff.
//   - neither: structural failures (solver.ErrIndefinite, AMG setup,
//     non-walkable matrix, ...) — this backend will keep failing for
//     this operand, fall to the next rung immediately.
func classifyError(err error) (retryable, abort bool) {
	switch {
	case errors.Is(err, solver.ErrCancelled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false, true
	case errors.Is(err, solver.ErrBreakdown):
		return true, false
	default:
		return false, false
	}
}

// RunLadder tries each rung in order under the resilience policy and
// returns the name and index of the rung that served. Every attempt,
// backoff, and breaker skip is recorded as a Degradation on the
// recorder bound to ctx (obs.FromContext) — including clean
// first-rung successes, so a manifest always says how the answer was
// produced. On cancellation the context error is returned unwrapped
// of ladder semantics (callers and serve already classify it); when
// every rung fails the error wraps ErrLadderExhausted and the last
// rung error.
func RunLadder(ctx context.Context, component string, rungs []LadderRung, o ResilienceOptions) (string, int, error) {
	o = o.withDefaults()
	if len(rungs) == 0 {
		return "", 0, fmt.Errorf("%w: %s: no rungs configured", ErrLadderExhausted, component)
	}
	rec := obs.FromContext(ctx)
	rng := rand.New(rand.NewSource(o.JitterSeed))
	deg := obs.Degradation{Component: component}
	var lastErr error
	for idx, rung := range rungs {
		var br *CircuitBreaker
		if o.Breakers != nil {
			br = o.Breakers.Get(rung.Name)
			if !br.Allow() {
				deg.Attempts = append(deg.Attempts, obs.DegradationAttempt{
					Rung: rung.Name, Skipped: "breaker-open",
				})
				continue
			}
		}
		for attempt := 1; attempt <= o.MaxAttempts; attempt++ {
			err := rung.Run(ctx)
			at := obs.DegradationAttempt{Rung: rung.Name, Attempt: attempt}
			if err == nil {
				br.Record(true)
				deg.Attempts = append(deg.Attempts, at)
				deg.Rung, deg.RungIndex = rung.Name, idx
				rec.RecordDegradation(deg)
				return rung.Name, idx, nil
			}
			at.Error = err.Error()
			retryable, abort := classifyError(err)
			if abort {
				// Cancellation is the caller's doing, not the
				// backend's: no breaker penalty, no exhaustion — but
				// the trail still lands in the (partial) manifest.
				deg.Attempts = append(deg.Attempts, at)
				deg.Exhausted = true
				rec.RecordDegradation(deg)
				return "", 0, err
			}
			br.Record(false)
			lastErr = err
			if !retryable || attempt == o.MaxAttempts {
				deg.Attempts = append(deg.Attempts, at)
				break
			}
			delay := BackoffDelay(o.BackoffBase, o.BackoffMax, attempt, rng)
			at.BackoffSeconds = delay.Seconds()
			deg.Attempts = append(deg.Attempts, at)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				deg.Exhausted = true
				rec.RecordDegradation(deg)
				return "", 0, fmt.Errorf("%s: backoff interrupted: %w", component, ctx.Err())
			}
		}
	}
	deg.Exhausted = true
	rec.RecordDegradation(deg)
	if lastErr == nil {
		// Every rung was skipped by an open breaker.
		return "", 0, fmt.Errorf("%w: %s: all rungs skipped by open breakers", ErrLadderExhausted, component)
	}
	return "", 0, fmt.Errorf("%w: %s: last error: %w", ErrLadderExhausted, component, lastErr)
}

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets one probe through; its outcome closes or
	// re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// cBreakerTrips counts closed→open transitions process-wide, so run
// manifests and /metricsz surface breaker trips.
var cBreakerTrips = obs.GlobalCounter("core.breaker.trips")

// CircuitBreaker is a consecutive-failure breaker for one ladder
// rung. Closed until Threshold consecutive failures, then open for
// Cooldown; the first Allow after the cooldown transitions to
// half-open and admits a single probe whose Record decides: success
// closes, failure re-opens for another cooldown. Safe for concurrent
// use; methods on a nil receiver are inert (Allow always true).
type CircuitBreaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int
	openedAt  time.Time
	probing   bool
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test hook
}

// NewCircuitBreaker builds a breaker; threshold <= 0 defaults to 3
// and cooldown <= 0 to 5s.
func NewCircuitBreaker(threshold int, cooldown time.Duration) *CircuitBreaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &CircuitBreaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a call may proceed, performing the
// open→half-open transition when the cooldown has elapsed.
func (b *CircuitBreaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of a call admitted by Allow.
func (b *CircuitBreaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
		if success {
			b.state = BreakerClosed
			b.failures = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
			cBreakerTrips.Inc()
		}
		return
	}
	if success {
		b.failures = 0
		return
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
		cBreakerTrips.Inc()
	}
}

// Reset force-closes the breaker and clears its failure count. It is
// the entry point for authoritative external health evidence: the
// cluster gateway's probe loop closes a shard's breaker the moment a
// real health check succeeds, instead of waiting out the cooldown for
// a half-open probe. Ladder rungs never call it — a rung success
// reaches the breaker through Record, which only closes from
// half-open.
func (b *CircuitBreaker) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// State returns the current position (closed when nil).
func (b *CircuitBreaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSet is a named collection of breakers sharing one policy —
// the per-backend trip registry a serving process hangs off its
// analyzers. Safe for concurrent use; nil-safe (a nil set gates
// nothing).
type BreakerSet struct {
	mu        sync.Mutex
	m         map[string]*CircuitBreaker
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test hook, applied to new breakers
}

// NewBreakerSet builds a set whose breakers open after threshold
// consecutive failures and cool down for cooldown (defaults as in
// NewCircuitBreaker).
func NewBreakerSet(threshold int, cooldown time.Duration) *BreakerSet {
	return &BreakerSet{m: map[string]*CircuitBreaker{}, threshold: threshold, cooldown: cooldown}
}

// Get returns the breaker for name, creating it on first use. Nil-safe
// (returns a nil breaker, which allows everything).
func (s *BreakerSet) Get(name string) *CircuitBreaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = NewCircuitBreaker(s.threshold, s.cooldown)
		if s.now != nil {
			b.now = s.now
		}
		s.m[name] = b
	}
	return b
}

// States snapshots every breaker's position, for health endpoints.
func (s *BreakerSet) States() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.m))
	for name, b := range s.m {
		out[name] = b.State().String()
	}
	return out
}
