package serve

// Regression tests proving error identity survives the serve job
// layer's wrap chains: failureKind drives the structured error_kind
// (and therefore the HTTP status) purely via errors.Is, so a single
// %v wrap anywhere on the failure path silently turns structured
// 503/504 responses into bare 500s. Companion to
// internal/core/errwrap_test.go, which pins the ladder side.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"irfusion/internal/plan"
	"irfusion/internal/solver"
)

func TestFailureKindSeesThroughWrapping(t *testing.T) {
	exhausted := fmt.Errorf("%w: numerical: last error: %w",
		plan.ErrLadderExhausted,
		fmt.Errorf("rung amg: %w", solver.ErrBreakdown))
	deadline := fmt.Errorf("analyze: %w",
		fmt.Errorf("%w after 12 iterations: %w", solver.ErrCancelled, context.DeadlineExceeded))
	panicErr := fmt.Errorf("job 7: %w", fmt.Errorf("%w: index out of range", errWorkerPanic))

	cases := []struct {
		name string
		err  error
		want string
	}{
		{"ladder-exhausted", exhausted, ErrKindExhausted},
		{"deadline", deadline, errKindTimeout},
		{"worker-panic", panicErr, errKindPanic},
		{"plain", errors.New("something else"), ""},
	}
	for _, tc := range cases {
		if kind, _ := failureKind(tc.err); kind != tc.want {
			t.Errorf("%s: failureKind = %q, want %q (err: %v)", tc.name, kind, tc.want, tc.err)
		}
	}

	// The exhausted chain must also keep its numerical root cause for
	// diagnostics: both sentinels visible through two %w levels.
	if !errors.Is(exhausted, solver.ErrBreakdown) {
		t.Error("ErrBreakdown lost through the exhaustion wrap")
	}
}

// TestCancelledWrapSurvivesFaultSleep pins the wrap at the serve
// worker's fault hook: a context error from an injected stall must
// classify as a cancellation (solver.ErrCancelled AND the ctx cause),
// which is what routes the job to 499-style cancelled handling rather
// than a generic failure.
func TestCancelledWrapSurvivesFaultSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := fmt.Errorf("%w: %w", solver.ErrCancelled, ctx.Err())
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation identity lost: %v", err)
	}
	if kind, _ := failureKind(err); kind != "" {
		t.Errorf("explicit cancel must not classify as timeout/exhaustion, got %q", kind)
	}
}
