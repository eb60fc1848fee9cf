package plan

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

// fixtureDesign is the base design of the policy and ladder tests; its
// ECO variant pgen.Perturb(d, 0.01, 5) lies within
// cache.DefaultWarmDelta of it.
func fixtureDesign(t *testing.T) *pgen.Design {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("ladder", pgen.Real, 24, 24, 17))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// warmFixture is a converged solve with a choice to make: the returned
// context carries a recorder and a cache holding the base design, and
// sys and req are an ECO variant of it, whose solve warm-starts off the
// base and runs PCG iterations doing so.
func warmFixture(t *testing.T) (context.Context, *circuit.System, Solve) {
	t.Helper()
	d := fixtureDesign(t)
	v := pgen.Perturb(d, 0.01, 5)
	ctx := cache.WithCache(obs.WithRecorder(context.Background(), obs.NewRecorder()), donorCache(t, d))
	return ctx, assemble(t, v), Solve{Fingerprint: func() string { return cache.DesignFingerprint(v) }}
}

// degradation returns the one record on ctx's recorder.
func degradation(t *testing.T, ctx context.Context) obs.Degradation {
	t.Helper()
	degs := obs.FromContext(ctx).Manifest("t", nil).Degradations
	if len(degs) != 1 {
		t.Fatalf("want one degradation record, got %+v", degs)
	}
	return degs[0]
}

// waitParked returns once a solve is parked on a stall fault.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("internal/faults.(*Fault).Sleep(")) {
			return
		}
	}
	t.Fatal("no solve parked on the stall before the deadline")
}

// TestLadderExhausted checks the structured failure: when the warm
// start and the cold solve both fail, Numerical returns
// ErrLadderExhausted, stores nothing, and the manifest records the
// exhausted trail with no serving rung.
func TestLadderExhausted(t *testing.T) {
	ctx, sys, req := warmFixture(t)
	stores := cache.FromContext(ctx).Stats().Stores
	ctx = faults.WithInjector(ctx, faults.New(
		faults.Rule{Site: faults.SitePCG, Action: faults.ActBreakdown, Label: RungAMGWarm},
		faults.Rule{Site: faults.SiteAMGSetup, Action: faults.ActFail}))
	if _, err := Numerical(ctx, sys, make([]float64, sys.N()), req); !errors.Is(err, ErrLadderExhausted) {
		t.Fatalf("want ErrLadderExhausted, got %v", err)
	}
	deg := degradation(t, ctx)
	if !deg.Exhausted || deg.Rung != "" || len(deg.Attempts) != 2 ||
		deg.Attempts[0].Rung != RungAMGWarm || deg.Attempts[1].Rung != RungAMG ||
		deg.Attempts[0].Error == "" || deg.Attempts[1].Error == "" {
		t.Fatalf("want an exhausted warm-then-cold trail with no serving rung, got %+v", deg)
	}
	if got := cache.FromContext(ctx).Stats().Stores; got != stores {
		t.Errorf("an exhausted solve stored %d donor(s)", got-stores)
	}
}

// TestLadderCancellationAborts: a context cancelled before the solve
// starts stops it at its first check (no fallback masks a
// cancellation), the lookup it cut short leaves no attempt, and the
// trail up to the cancellation still lands in the manifest.
func TestLadderCancellationAborts(t *testing.T) {
	ctx, sys, req := warmFixture(t)
	ctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err := Numerical(ctx, sys, make([]float64, sys.N()), req)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrLadderExhausted) {
		t.Fatalf("want a cancellation that is not exhaustion, got %v", err)
	}
	deg := degradation(t, ctx)
	if len(deg.Attempts) != 1 || deg.Attempts[0].Rung != RungAMG || deg.Attempts[0].Error == "" || !deg.Exhausted {
		t.Fatalf("cancelled trail not recorded: %+v", deg)
	}
	if m := obs.FromContext(ctx).Manifest("t", nil); len(m.Solves) != 0 {
		t.Errorf("a cancelled solve ran PCG: %+v", m.Solves)
	}
}

// TestLadderTriesEachRungOnce pins the one real fallback: a warm start
// that finds the operator indefinite is tried exactly once and the cold
// solve serves — a deterministic backend that failed would fail again —
// and the cold solve, having built its own hierarchy, is stored.
func TestLadderTriesEachRungOnce(t *testing.T) {
	ctx, sys, req := warmFixture(t)
	c := cache.FromContext(ctx)
	stores := c.Stats().Stores
	ctx = faults.WithInjector(ctx, faults.New(faults.Rule{Site: faults.SitePCG, Action: faults.ActIndefinite, Label: RungAMGWarm}))
	if _, err := Numerical(ctx, sys, make([]float64, sys.N()), req); err != nil {
		t.Fatalf("the cold rung should have served: %v", err)
	}
	deg := degradation(t, ctx)
	if deg.Rung != RungAMG || deg.RungIndex != 1 || len(deg.Attempts) != 2 || !deg.Degraded() ||
		deg.Attempts[0].Rung != RungAMGWarm || deg.Attempts[0].Error == "" || deg.Attempts[1].Error != "" {
		t.Errorf("degradation record %+v, want a failed warm start then %s at index 1", deg, RungAMG)
	}
	pcgs := map[string]int{}
	for _, s := range obs.FromContext(ctx).Manifest("t", nil).Solves {
		pcgs[s.Label]++
	}
	if pcgs[RungAMGWarm] != 1 || pcgs[RungAMG] != 1 || len(pcgs) != 2 {
		t.Errorf("PCG solves per rung %v, want one each", pcgs)
	}
	if c.Stats().Stores != stores+1 {
		t.Errorf("cold solve after a failed warm start stored %d donor(s), want 1", c.Stats().Stores-stores)
	}
	if nb, delta, _ := cache.FindWarmStart(context.Background(), c, sys.G, 0); nb == nil || nb.Fingerprint != req.Fingerprint() || delta != 0 { //irfusion:exact the stored matrix is this one, entry for entry
		t.Error("the cold solve was not kept as a donor")
	}
}
