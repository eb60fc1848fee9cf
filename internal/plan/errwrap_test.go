package plan

// Regression tests for error-wrapping identity: the degradation
// ladder's abort test (and the serving layer's error_kind mapping on
// top of it) is driven entirely by errors.Is, so every wrap site on
// the failure paths must use %w. These tests pin the contract by
// pushing sentinel errors through the same multi-level wrap chains the
// pipeline produces and asserting the identities survive.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"irfusion/internal/faults"
	"irfusion/internal/solver"
)

// TestLadderExhaustedPreservesBreakdown proves that when every rung
// fails with a (further wrapped) solver.ErrBreakdown, the exhausted
// ladder error still satisfies errors.Is for BOTH sentinels: the
// serving layer classifies on ErrLadderExhausted while diagnostics and
// tests still see the root cause.
func TestLadderExhaustedPreservesBreakdown(t *testing.T) {
	rungs := []ladderRung{
		{name: "a", run: func(context.Context) error {
			return fmt.Errorf("rung a: solve failed: %w",
				fmt.Errorf("%w (injected at iteration 3)", solver.ErrBreakdown))
		}},
		{name: "b", run: func(context.Context) error {
			return fmt.Errorf("rung b: %w", solver.ErrIndefinite)
		}},
	}
	err := runLadder(context.Background(), "test", rungs)
	if err == nil {
		t.Fatal("want error from fully failing ladder")
	}
	if !errors.Is(err, ErrLadderExhausted) {
		t.Errorf("errors.Is(err, ErrLadderExhausted) = false; err = %v", err)
	}
	if !errors.Is(err, solver.ErrIndefinite) {
		t.Errorf("last rung error lost through exhaustion wrap; err = %v", err)
	}
}

// TestLadderAbortPreservesCancellation proves a cancellation
// surfacing from deep inside a rung (the PCGCtx wrap chain:
// ErrCancelled wrapping ctx.Err()) aborts the ladder and keeps both
// identities — the serve layer needs ErrCancelled/DeadlineExceeded,
// not ErrLadderExhausted, for its 4xx/504 mapping.
func TestLadderAbortPreservesCancellation(t *testing.T) {
	inner := fmt.Errorf("%w after 7 iterations: %w", solver.ErrCancelled, context.Canceled)
	rungs := []ladderRung{
		{name: "a", run: func(context.Context) error {
			return fmt.Errorf("numerical.amg: %w", inner)
		}},
		{name: "b", run: func(context.Context) error {
			t.Error("ladder must not fall through after cancellation")
			return nil
		}},
	}
	err := runLadder(context.Background(), "test", rungs)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation identity lost; err = %v", err)
	}
	if errors.Is(err, ErrLadderExhausted) {
		t.Errorf("cancellation must not read as exhaustion; err = %v", err)
	}
}

// TestDeadlineSurvivesLadderAsTimeout pins the errors.As path: a
// deadline error keeps its net.Error-style Timeout() through the
// ladder's abort return, which is what lets callers distinguish
// timeout from explicit cancel without string matching.
func TestDeadlineSurvivesLadderAsTimeout(t *testing.T) {
	rungs := []ladderRung{
		{name: "a", run: func(context.Context) error {
			return fmt.Errorf("%w mid-solve: %w", solver.ErrCancelled, context.DeadlineExceeded)
		}},
	}
	err := runLadder(context.Background(), "test", rungs)
	if err == nil {
		t.Fatal("want deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) = false; err = %v", err)
	}
	var te interface{ Timeout() bool }
	if !errors.As(err, &te) || !te.Timeout() {
		t.Errorf("errors.As timeout identity lost; err = %v", err)
	}
}

// TestFaultsParseErrorWraps pins the %w fix in the faults spec parser:
// the clause-level wrap must expose the parameter-level cause to
// errors.Is/errors.As, not flatten it to text.
func TestFaultsParseErrorWraps(t *testing.T) {
	sentinel := errors.New("probe")
	wrapped := fmt.Errorf("faults: clause %q: %w", "x", sentinel)
	if !errors.Is(wrapped, sentinel) {
		t.Fatal("wrap idiom lost the cause")
	}
	// The real parser path: a bad probability must produce a chain,
	// not a flattened string (we can only assert non-nil structure
	// here since the inner error is unexported, but Unwrap must work).
	_, err := faults.Parse("solver.pcg:breakdown:p=2.0")
	if err == nil {
		t.Fatal("want error for out-of-range probability")
	}
	if errors.Unwrap(err) == nil {
		t.Errorf("clause error does not wrap its cause: %v", err)
	}
}
