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
// to the context and a fresh recorder, returning the map and the
// recorded cache events.
func analyzeWithCache(t *testing.T, c *cache.Cache, d *pgen.Design) (*grid.Map, []obs.CacheEvent) {
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
	mf := rec.Manifest("test", nil)
	if mf.Cache == nil {
		return m, nil
	}
	return m, mf.Cache.Events
}

// TestAnalyzeCacheExactHit proves the exact-hit path: the second
// analysis of an identical design serves the cached golden solution
// (guarded by one SpMV), produces a bitwise-identical drop map, and
// runs no solver ladder at all.
func TestAnalyzeCacheExactHit(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	cold, evts := analyzeWithCache(t, c, d)
	if len(evts) == 0 || evts[len(evts)-1].Outcome != obs.CacheStore {
		t.Fatalf("first run events = %+v, want a trailing store", evts)
	}
	hit, evts := analyzeWithCache(t, c, d)
	var sawHit bool
	for _, e := range evts {
		if e.Outcome == obs.CacheHit && e.Stage == "numerical.solve" {
			sawHit = true
		}
		if e.Outcome == obs.CacheStore {
			t.Fatalf("hit run re-stored: %+v", evts)
		}
	}
	if !sawHit {
		t.Fatalf("second run did not hit: %+v", evts)
	}
	if diff := mapMaxDiff(cold, hit); diff != 0 { //irfusion:exact a served golden solution is the stored bits; rasterizing must reproduce the cold map exactly
		t.Fatalf("hit map differs from cold map by %g", diff)
	}
}

// TestAnalyzeCacheWarmStart proves the delta-solve path end to end: an
// ECO-perturbed design warm-starts off the cached baseline (warm event
// with a sub-budget delta, served by the plan.RungAMGWarm rung) and its map
// matches a cold analysis of the same perturbed design to GuardTol.
func TestAnalyzeCacheWarmStart(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	if _, evts := analyzeWithCache(t, c, d); len(evts) == 0 {
		t.Fatal("baseline run recorded no cache events")
	}
	eco := pgen.Perturb(d, 0.01, 5)
	coldEco, _ := analyzeWithCache(t, nil, eco)
	warmEco, evts := analyzeWithCache(t, c, eco)
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

// TestAnalyzeCacheStaleGuard proves the residual guard: a poisoned
// lookup (injected via the cache.lookup stale fault) must be rejected,
// dropped, recomputed and re-stored — never served.
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
	if mf.Cache == nil || mf.Cache.Stale == 0 {
		t.Fatalf("stale rejection not recorded: %+v", mf.Cache)
	}
	if mf.Cache.Hits != 0 {
		t.Fatalf("poisoned entry served as a hit: %+v", mf.Cache)
	}
	if mf.Cache.Stores == 0 {
		t.Fatalf("recomputed solution not re-stored: %+v", mf.Cache)
	}
	if diff := mapMaxDiff(cold, m); diff > cache.GuardTol {
		t.Fatalf("post-stale recompute differs from cold by %g", diff)
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
