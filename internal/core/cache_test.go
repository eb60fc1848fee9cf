package core

import (
	"context"
	"math"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/faults"
	"irfusion/internal/grid"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

func cacheTestDesign(t *testing.T) *pgen.Design {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("cachecore", pgen.Real, 24, 24, 17))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mapMaxDiff(a, b *grid.Map) float64 {
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// analyzeWithCache runs one converged numerical analysis with c bound
// to the context and a fresh recorder, returning the map and the run's
// manifest.
func analyzeWithCache(t *testing.T, c *cache.Cache, d *pgen.Design) (*grid.Map, *obs.Manifest) {
	t.Helper()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if c != nil {
		ctx = cache.WithCache(ctx, c)
	}
	na := &NumericalAnalyzer{Iters: 0, Resolution: 24}
	m, _, _, err := na.AnalyzeCtx(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	return m, rec.Manifest("test", nil)
}

// cacheEvents is the manifest's cache event list, nil without one.
func cacheEvents(mf *obs.Manifest) []obs.CacheEvent {
	if mf.Cache == nil {
		return nil
	}
	return mf.Cache.Events
}

// TestAnalyzeCacheExactHit proves what an exact repeat is: the second
// analysis of an identical design is a warm start at delta 0 off the
// first. Its PCG stops at iteration 0 with the cached golden solution
// unchanged, so the drop map is bitwise identical, and it stores
// nothing.
func TestAnalyzeCacheExactHit(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	cold, mf := analyzeWithCache(t, c, d)
	if evts := cacheEvents(mf); len(evts) == 0 || evts[len(evts)-1].Outcome != obs.CacheStore {
		t.Fatalf("first run events = %+v, want a trailing store", evts)
	}
	repeat, mf := analyzeWithCache(t, c, d)
	if evts := cacheEvents(mf); len(evts) != 1 || evts[0].Outcome != obs.CacheWarm || evts[0].Delta != 0 { //irfusion:exact an identical deck assembles the stored matrix entry for entry
		t.Fatalf("repeat events = %+v, want one warm event at delta 0 and no store", evts)
	}
	if len(mf.Solves) != 1 || mf.Solves[0].Iterations != 0 {
		t.Fatalf("repeat solves = %+v, want one of 0 PCG iterations", mf.Solves)
	}
	for i := range cold.Data {
		if math.Float64bits(repeat.Data[i]) != math.Float64bits(cold.Data[i]) {
			t.Fatalf("repeat map cell %d: %x, first run %x", i, repeat.Data[i], cold.Data[i])
		}
	}
}

// TestAnalyzeCacheWarmStart proves the delta-solve path end to end: an
// ECO-perturbed design warm-starts off the cached baseline (warm event
// with a sub-budget delta, served by the plan.RungAMGWarm rung) and its map
// matches a cold analysis of the same perturbed design to GuardTol.
func TestAnalyzeCacheWarmStart(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	if _, mf := analyzeWithCache(t, c, d); len(cacheEvents(mf)) == 0 {
		t.Fatal("baseline run recorded no cache events")
	}
	eco := pgen.Perturb(d, 0.01, 5)
	coldEco, _ := analyzeWithCache(t, nil, eco)
	warmEco, mf := analyzeWithCache(t, c, eco)
	evts := cacheEvents(mf)
	var warm *obs.CacheEvent
	for i, e := range evts {
		if e.Outcome == obs.CacheWarm {
			warm = &evts[i]
		}
	}
	if warm == nil {
		t.Fatalf("no warm event recorded: %+v", evts)
	}
	if warm.Delta <= 0 || warm.Delta > cache.DefaultWarmDelta {
		t.Fatalf("warm delta %g outside (0, %g]", warm.Delta, cache.DefaultWarmDelta)
	}
	if diff := mapMaxDiff(coldEco, warmEco); diff > cache.GuardTol {
		t.Fatalf("warm map differs from cold map by %g (tol %g)", diff, cache.GuardTol)
	}
}

// TestAnalyzeCacheStaleGuard proves what guards a poisoned donor (the
// cache.lookup stale fault): the warm rung must converge, so it
// iterates from the poisoned guess to the cold answer instead of
// serving the guess.
func TestAnalyzeCacheStaleGuard(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	cold, _ := analyzeWithCache(t, c, d)

	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	ctx = cache.WithCache(ctx, c)
	ctx = faults.WithInjector(ctx, faults.New(faults.Rule{Site: faults.SiteCacheLookup, Action: faults.ActStale}))
	na := &NumericalAnalyzer{Iters: 0, Resolution: 24}
	m, _, _, err := na.AnalyzeCtx(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	mf := rec.Manifest("test", nil)
	if mf.Cache == nil || mf.Cache.WarmStarts != 1 {
		t.Fatalf("poisoned donor did not serve a warm start: %+v", mf.Cache)
	}
	if len(mf.Solves) != 1 || mf.Solves[0].Iterations == 0 {
		t.Fatalf("solves = %+v, want one that iterated off the poisoned guess", mf.Solves)
	}
	if diff := mapMaxDiff(cold, m); diff > cache.GuardTol {
		t.Fatalf("warm start off a poisoned donor differs from cold by %g (tol %g)", diff, cache.GuardTol)
	}
}

// TestAnalyzeBudgetedSolvesBypassCache pins the Fig-7 isolation rule:
// budgeted (Iters > 0) analyses never consult or feed the cache —
// their per-iteration progress is the measured quantity.
func TestAnalyzeBudgetedSolvesBypassCache(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	ctx = cache.WithCache(ctx, c)
	na := &NumericalAnalyzer{Iters: 5, Resolution: 24, Precond: "ssor"}
	if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
		t.Fatal(err)
	}
	if mf := rec.Manifest("test", nil); mf.Cache != nil {
		t.Fatalf("budgeted analysis touched the cache: %+v", mf.Cache)
	}
	if c.Len() != 0 {
		t.Fatalf("budgeted analysis stored %d artifact(s)", c.Len())
	}
}
