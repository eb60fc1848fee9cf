package plan

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"irfusion/internal/obs"
	"irfusion/internal/solver"
)

// TestLadderExhausted checks the structured failure: when every rung
// fails, runLadder returns ErrLadderExhausted and the manifest
// records the exhausted trail.
func TestLadderExhausted(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	boom := errors.New("backend down")
	rungs := []ladderRung{
		{name: "a", run: func(context.Context) error { return boom }},
		{name: "b", run: func(context.Context) error { return fmt.Errorf("%w: b", solver.ErrIndefinite) }},
	}
	lerr := runLadder(ctx, "test.exhaust", rungs)
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
// ladder immediately (no fallback masks a cancellation), and the trail
// up to it still lands in the manifest.
func TestLadderCancellationAborts(t *testing.T) {
	rec := obs.NewRecorder()
	calls := 0
	ctx, cancel := context.WithCancel(obs.WithRecorder(context.Background(), rec))
	cancel()
	rungs := []ladderRung{
		{name: "a", run: func(ctx context.Context) error {
			calls++
			return fmt.Errorf("%w: %w", solver.ErrCancelled, ctx.Err())
		}},
		{name: "b", run: func(context.Context) error {
			calls++
			return nil
		}},
	}
	err := runLadder(ctx, "test.cancel", rungs)
	if !errors.Is(err, solver.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("ladder kept going after cancellation: %d rung calls", calls)
	}
	degs := rec.Manifest("t", nil).Degradations
	if len(degs) != 1 || len(degs[0].Attempts) != 1 || degs[0].Attempts[0].Error == "" {
		t.Fatalf("cancelled trail not recorded: %+v", degs)
	}
}

// TestLadderTriesEachRungOnce pins the policy: a rung failing with a
// (wrapped) numerical breakdown is called exactly once and the next
// rung serves — a deterministic backend that broke down would break
// down again.
func TestLadderTriesEachRungOnce(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	calls := 0
	rungs := []ladderRung{
		{name: "flaky", run: func(context.Context) error {
			calls++
			return fmt.Errorf("attempt %d: %w", calls, fmt.Errorf("inner: %w", solver.ErrBreakdown))
		}},
		{name: "fallback", run: func(context.Context) error { return nil }},
	}
	if err := runLadder(ctx, "test.once", rungs); err != nil {
		t.Fatalf("fallback rung should have served: %v", err)
	}
	if calls != 1 {
		t.Errorf("breaking rung called %d times, want 1", calls)
	}
	deg := rec.Manifest("t", nil).Degradations[0]
	if deg.Rung != "fallback" || deg.RungIndex != 1 || len(deg.Attempts) != 2 || !deg.Degraded() {
		t.Errorf("degradation record %+v, want flaky then fallback at index 1", deg)
	}
}
