package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"irfusion/internal/obs"
	"irfusion/internal/solver"
)

// fastRes keeps ladder tests quick: retries back off for microseconds
// instead of the production milliseconds.
func fastRes() ResilienceOptions {
	return ResilienceOptions{BackoffBase: 10 * time.Microsecond, BackoffMax: 50 * time.Microsecond}
}

// TestLadderExhausted checks the structured failure: when every rung
// fails, RunLadder returns ErrLadderExhausted and the manifest
// records the exhausted trail.
func TestLadderExhausted(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	boom := errors.New("backend down")
	rungs := []LadderRung{
		{Name: "a", Run: func(context.Context) error { return boom }},
		{Name: "b", Run: func(context.Context) error { return fmt.Errorf("%w: b", solver.ErrIndefinite) }},
	}
	_, _, lerr := RunLadder(ctx, "test.exhaust", rungs, fastRes())
	if !errors.Is(lerr, ErrLadderExhausted) {
		t.Fatalf("want ErrLadderExhausted, got %v", lerr)
	}
	man := rec.Manifest("test.exhaust", nil)
	if len(man.Degradations) != 1 || !man.Degradations[0].Exhausted {
		t.Fatalf("want one exhausted degradation record, got %+v", man.Degradations)
	}
	if man.Degradations[0].Rung != "" {
		t.Fatalf("exhausted record should have no serving rung: %+v", man.Degradations[0])
	}
}

// TestLadderCancellationAborts: a cancelled context must stop the
// ladder immediately (no fallback masks a cancellation).
func TestLadderCancellationAborts(t *testing.T) {
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rungs := []LadderRung{
		{Name: "a", Run: func(ctx context.Context) error {
			calls++
			return fmt.Errorf("%w: %w", solver.ErrCancelled, ctx.Err())
		}},
		{Name: "b", Run: func(context.Context) error {
			calls++
			return nil
		}},
	}
	_, _, err := RunLadder(ctx, "test.cancel", rungs, fastRes())
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("ladder kept going after cancellation: %d rung calls", calls)
	}
}

// TestBackoffDeterminismUnderSeed: the retry backoff sequence is a
// pure function of the jitter seed — two ladders with the same seed
// record identical backoff_seconds trails.
func TestBackoffDeterminismUnderSeed(t *testing.T) {
	trail := func(seed int64) []float64 {
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(context.Background(), rec)
		fail := 0
		rungs := []LadderRung{{Name: "flaky", Run: func(context.Context) error {
			fail++
			if fail < 4 {
				return fmt.Errorf("%w: transient", solver.ErrBreakdown)
			}
			return nil
		}}}
		o := fastRes()
		o.MaxAttempts = 4
		o.JitterSeed = seed
		if _, _, err := RunLadder(ctx, "test.backoff", rungs, o); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, a := range rec.Manifest("t", nil).Degradations[0].Attempts {
			out = append(out, a.BackoffSeconds)
		}
		return out
	}
	a, b := trail(42), trail(42)
	if len(a) != 4 {
		t.Fatalf("want 4 attempts, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different backoffs: %v vs %v", a, b)
		}
	}
	c := trail(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical backoffs: %v", a)
	}
	// The first three attempts backed off, the serving one did not.
	for i := 0; i < 3; i++ {
		if a[i] <= 0 {
			t.Fatalf("attempt %d recorded no backoff: %v", i+1, a)
		}
	}
	if a[3] != 0 {
		t.Fatalf("serving attempt recorded a backoff: %v", a)
	}
}

// TestBackoffDelayGrowsAndCaps checks the exponential envelope:
// with jitter in [0.5, 1), attempt k's delay lies in
// [cap/2, cap] where cap = min(base·2^(k−1), max).
func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	base, max := 10*time.Millisecond, 40*time.Millisecond
	rng := rand.New(rand.NewSource(1))
	envelopes := []time.Duration{10, 20, 40, 40, 40} // ms, attempt 1..5
	for i, envMs := range envelopes {
		env := envMs * time.Millisecond
		d := BackoffDelay(base, max, i+1, rng)
		if d < env/2 || d > env {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", i+1, d, env/2, env)
		}
	}
}

// TestCircuitBreakerTransitions walks the full state machine with a
// fake clock: closed → (threshold failures) → open → (cooldown) →
// half-open → probe failure → open → (cooldown) → half-open → probe
// success → closed.
func TestCircuitBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewCircuitBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	if got := b.State(); got != BreakerClosed {
		t.Fatalf("initial state %v", got)
	}
	// Two failures + success resets the consecutive count.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %v after interrupted failure streak", got)
	}
	// Third consecutive failure trips it.
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after threshold failures", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	// Cooldown elapses: one probe is admitted, concurrent calls are not.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %v after probe admission", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: back to open for another cooldown.
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after failed probe", got)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a call")
	}
	// Second cooldown, successful probe: closed again.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("breaker did not admit the second probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %v after successful probe", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

// TestLadderSkipsOpenBreakerRung: a rung whose breaker is open is
// skipped (recorded as such) and the next rung serves.
func TestLadderSkipsOpenBreakerRung(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	set := NewBreakerSet(1, time.Hour)
	// Trip rung "a".
	set.Get("a").Record(false)
	if set.Get("a").State() != BreakerOpen {
		t.Fatal("setup: breaker a not open")
	}
	aCalls := 0
	rungs := []LadderRung{
		{Name: "a", Run: func(context.Context) error { aCalls++; return nil }},
		{Name: "b", Run: func(context.Context) error { return nil }},
	}
	o := fastRes()
	o.Breakers = set
	rung, idx, err := RunLadder(ctx, "test.skip", rungs, o)
	if err != nil || rung != "b" || idx != 1 {
		t.Fatalf("RunLadder = %q, %d, %v; want b, 1, nil", rung, idx, err)
	}
	if aCalls != 0 {
		t.Fatalf("open-breaker rung was attempted %d times", aCalls)
	}
	deg := rec.Manifest("t", nil).Degradations[0]
	if len(deg.Attempts) != 2 || deg.Attempts[0].Skipped == "" {
		t.Fatalf("skip not recorded: %+v", deg.Attempts)
	}
	if states := set.States(); states["a"] != "open" || states["b"] != "closed" {
		t.Fatalf("States() = %v", states)
	}
}

// TestBreakerSetConcurrent hammers one BreakerSet from many
// goroutines (race-clean check for the serving path, where every
// worker shares the set).
func TestBreakerSetConcurrent(t *testing.T) {
	set := NewBreakerSet(3, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("rung-%d", g%3)
			for i := 0; i < 200; i++ {
				b := set.Get(name)
				if b.Allow() {
					b.Record(i%4 == 0)
				}
				set.States()
			}
		}(g)
	}
	wg.Wait()
}
