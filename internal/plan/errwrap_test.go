package plan

// Regression tests for error-wrapping identity: the solve's abort test
// (and the serving layer's error_kind mapping on top of it) is driven
// entirely by errors.Is, so every wrap site on the failure paths must
// use %w. These tests push injected failures through the real wrap
// chains, the solver's and the ladder's, and assert the identities
// survive.

import (
	"context"
	"errors"
	"testing"
	"time"

	"irfusion/internal/circuit"
	"irfusion/internal/faults"
	"irfusion/internal/pgen"
	"irfusion/internal/solver"
)

// TestLadderExhaustedPreservesBreakdown proves that when the warm start
// breaks down and the cold solve then finds the operator indefinite,
// the exhausted ladder error satisfies errors.Is for ErrLadderExhausted
// and for the last rung's sentinel: the serving layer classifies on
// the first while diagnostics and tests still see the root cause.
func TestLadderExhaustedPreservesBreakdown(t *testing.T) {
	ctx, sys, req := warmFixture(t)
	ctx = faults.WithInjector(ctx, faults.New(
		faults.Rule{Site: faults.SitePCG, Action: faults.ActBreakdown, Label: RungAMGWarm},
		faults.Rule{Site: faults.SitePCG, Action: faults.ActIndefinite, Label: RungAMG}))
	_, err := Numerical(ctx, sys, make([]float64, sys.N()), req)
	if !errors.Is(err, ErrLadderExhausted) {
		t.Errorf("errors.Is(err, ErrLadderExhausted) = false; err = %v", err)
	}
	if !errors.Is(err, solver.ErrIndefinite) {
		t.Errorf("last rung error lost through exhaustion wrap; err = %v", err)
	}
}

// TestLadderAbortPreservesCancellation proves a cancellation surfacing
// from inside the warm start (the PCGCtx wrap chain: ErrCancelled
// wrapping ctx.Err()) ends the solve without falling to the cold rung,
// and keeps both identities — the serve layer needs
// ErrCancelled/Canceled, not ErrLadderExhausted, for its 4xx mapping.
func TestLadderAbortPreservesCancellation(t *testing.T) {
	ctx, sys, req := warmFixture(t)
	ctx, cancel := context.WithCancel(faults.WithInjector(ctx,
		faults.New(faults.Rule{Site: faults.SitePCG, Action: faults.ActStall, Label: RungAMGWarm})))
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Numerical(ctx, sys, make([]float64, sys.N()), req)
		done <- err
	}()
	waitParked(t)
	cancel()
	err := <-done
	if !errors.Is(err, solver.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation identity lost; err = %v", err)
	}
	if errors.Is(err, ErrLadderExhausted) {
		t.Errorf("cancellation must not read as exhaustion; err = %v", err)
	}
	deg := degradation(t, ctx)
	if len(deg.Attempts) != 1 || deg.Attempts[0].Rung != RungAMGWarm || !deg.Exhausted {
		t.Errorf("trail %+v, want the cancelled warm start alone", deg)
	}
}

// TestDeadlineSurvivesLadderAsTimeout pins the errors.As path: a
// deadline error keeps its net.Error-style Timeout() through the
// solve's abort return, which is what lets callers distinguish timeout
// from explicit cancel without string matching.
func TestDeadlineSurvivesLadderAsTimeout(t *testing.T) {
	sys := assemble(t, fixtureDesign(t))
	ctx, cancel := context.WithTimeout(faults.WithInjector(context.Background(),
		faults.New(faults.Rule{Site: faults.SitePCG, Action: faults.ActStall, Label: RungAMG})), 50*time.Millisecond)
	defer cancel()
	_, err := Numerical(ctx, sys, make([]float64, sys.N()), Solve{})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrLadderExhausted) {
		t.Fatalf("err = %v; want DeadlineExceeded and not ErrLadderExhausted", err)
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
