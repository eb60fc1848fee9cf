package dataset

import (
	"context"
	"math"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

func cacheTestDesign(t *testing.T) *pgen.Design {
	t.Helper()
	// 24 um is the smallest Real-class die that still synthesizes a
	// full strap grid (16 collapses to a trivial two-element deck).
	d, err := pgen.Generate(pgen.DefaultConfig("cacheds", pgen.Real, 24, 24, 19))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// buildCached runs one BuildCtx with c bound to the context and a
// fresh recorder, returning the sample and the recorded cache events.
func buildCached(t *testing.T, c *cache.Cache, d *pgen.Design, opts Options) (*Sample, []obs.CacheEvent) {
	t.Helper()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	if c != nil {
		ctx = cache.WithCache(ctx, c)
	}
	s, err := BuildCtx(ctx, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	mf := rec.Manifest("test", nil)
	if mf.Cache == nil {
		return s, nil
	}
	return s, mf.Cache.Events
}

func outcomes(evts []obs.CacheEvent, stage string) map[string]int {
	out := map[string]int{}
	for _, e := range evts {
		if stage == "" || e.Stage == stage {
			out[e.Outcome]++
		}
	}
	return out
}

// TestBuildCacheSampleHit proves sample-level memoization: an
// identical design under identical options short-circuits the whole
// build, and the served copy never aliases cached state.
func TestBuildCacheSampleHit(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	opts := DefaultOptions(16, 16)
	first, evts := buildCached(t, c, d, opts)
	oc := outcomes(evts, "dataset.sample")
	if oc[obs.CacheMiss] != 1 || oc[obs.CacheStore] != 1 {
		t.Fatalf("first build sample events = %v", oc)
	}
	second, evts := buildCached(t, c, d, opts)
	if oc := outcomes(evts, "dataset.sample"); oc[obs.CacheHit] != 1 {
		t.Fatalf("second build sample events = %v", oc)
	}
	for i := range first.Golden.Data {
		if second.Golden.Data[i] != first.Golden.Data[i] { //irfusion:exact a memoized sample is the stored bits
			t.Fatal("served sample's golden map differs from the built one")
		}
	}
	// Mutating the served copy must not poison the cache.
	second.Golden.Data[0] += 100
	third, _ := buildCached(t, c, d, opts)
	if third.Golden.Data[0] != first.Golden.Data[0] { //irfusion:exact clone isolation: caller writes never reach the cache
		t.Fatal("caller mutation leaked into the cached sample")
	}
}

// TestBuildCacheOptionsKeyed proves the sample key folds in the
// options: a different raster resolution must not collide.
func TestBuildCacheOptionsKeyed(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	buildCached(t, c, d, DefaultOptions(16, 16))
	s, evts := buildCached(t, c, d, DefaultOptions(8, 8))
	if oc := outcomes(evts, "dataset.sample"); oc[obs.CacheHit] != 0 {
		t.Fatalf("different options hit the cached sample: %v", oc)
	}
	if s.Golden.H != 8 || s.Golden.W != 8 {
		t.Fatalf("served sample has wrong geometry %dx%d", s.Golden.H, s.Golden.W)
	}
}

// TestBuildCacheWarmGolden proves the dataset-layer delta-solve: a
// perturbed design warm-starts its golden solve off the cached
// baseline and still produces the same sample a cold build does.
func TestBuildCacheWarmGolden(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	opts := DefaultOptions(16, 16)
	buildCached(t, c, d, opts)

	// 0.5% ECO on this die measures ~1.5% matrix delta — inside the
	// 2% default warm budget (1% ECO measures ~2.3% and goes cold).
	eco := pgen.Perturb(d, 0.005, 3)
	cold, _ := buildCached(t, nil, eco, opts)
	warm, evts := buildCached(t, c, eco, opts)
	if oc := outcomes(evts, "dataset.golden_solve"); oc[obs.CacheWarm] != 1 {
		t.Fatalf("golden-solve events = %v, want one warm start", oc)
	}
	for i := range cold.Golden.Data {
		if diff := math.Abs(cold.Golden.Data[i] - warm.Golden.Data[i]); diff > cache.GuardTol {
			t.Fatalf("warm golden map differs from cold by %g at %d", diff, i)
		}
	}
}

// TestBuildUncachedRecordsNothing pins the default: with no cache
// resolved, BuildCtx records no cache events and stores nothing.
func TestBuildUncachedRecordsNothing(t *testing.T) {
	d := cacheTestDesign(t)
	if _, evts := buildCached(t, nil, d, DefaultOptions(16, 16)); len(evts) != 0 {
		t.Fatalf("uncached build recorded cache events: %+v", evts)
	}
}
