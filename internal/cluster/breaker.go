package cluster

import (
	"sync"
	"time"

	"irfusion/internal/obs"
)

// A breaker's positions, as /healthz, /metricsz and GET /v1/cluster
// report them.
const (
	// breakerClosed passes traffic and counts consecutive failures.
	breakerClosed = "closed"
	// breakerOpen rejects traffic until the cooldown elapses.
	breakerOpen = "open"
	// breakerHalfOpen lets one probe through; its outcome closes or
	// re-opens the breaker.
	breakerHalfOpen = "half-open"
)

// cBreakerTrips counts closed→open transitions, so the gateway's
// /metricsz and GET /v1/cluster surface them.
var cBreakerTrips = obs.GlobalCounter("cluster.breaker.trips")

// breaker is one shard's consecutive-failure circuit breaker. Closed
// until threshold consecutive failures, then open for cooldown; the
// first allow after the cooldown moves it to half-open and admits a
// single probe whose record decides: success closes, failure re-opens
// for another cooldown. Safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	state     string
	failures  int
	openedAt  time.Time
	probing   bool
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test hook
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{state: breakerClosed, threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a call may proceed, performing the
// open→half-open transition when the cooldown has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
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

// record reports the outcome of a call admitted by allow, or of a
// failed probe.
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		if success {
			b.state = breakerClosed
			b.failures = 0
		} else {
			b.trip()
		}
		return
	}
	if success {
		b.failures = 0
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold {
		b.trip()
	}
}

func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = b.now()
	cBreakerTrips.Inc()
}

// reset force-closes the breaker and clears its failure count: a
// successful health probe is authoritative liveness evidence, so the
// shard returns to rotation at once instead of waiting out the cooldown
// for a half-open admission.
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// position returns the breaker's current state.
func (b *breaker) position() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
