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

	"irfusion/internal/circuit"
	"irfusion/internal/faults"
	"irfusion/internal/pgen"
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

// TestInjectedBreakdownErrorWraps pushes a real failure through the
// real chain: a breakdown injected into the AMG rung's PCG leaves the
// solver wrapped with %w, then the ladder's exhaustion wrap, and both
// sentinels must survive to the caller.
func TestInjectedBreakdownErrorWraps(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("wrap", pgen.Fake, 16, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	ctx := faults.WithInjector(context.Background(),
		faults.New(faults.Rule{Site: faults.SitePCG, Action: faults.ActBreakdown, Label: RungAMG}))
	_, err = Numerical(ctx, sys, make([]float64, sys.N()), Solve{})
	if !errors.Is(err, ErrLadderExhausted) || !errors.Is(err, solver.ErrBreakdown) {
		t.Fatalf("err = %v; want it to wrap both ErrLadderExhausted and solver.ErrBreakdown", err)
	}
}
