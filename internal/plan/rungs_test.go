package plan

import (
	"context"
	"math"
	"slices"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

// TestRungsPolicy is the solve policy as a table over Numerical:
// request and cache state in, the attempts the manifest records out.
// Reading this replaces reading Numerical to learn which backend serves
// which request. Every rung name serves at least one row.
func TestRungsPolicy(t *testing.T) {
	d := fixtureDesign(t)
	sys := assemble(t, d)
	fp := func() string { return cache.DesignFingerprint(d) }
	cases := []struct {
		name  string
		req   Solve
		cache func(t *testing.T) *cache.Cache // nil: no artifact cache
		want  []string
	}{
		{name: "converged, no cache", want: []string{RungAMG}},
		{name: "converged, ssor precond still runs AMG", req: Solve{Precond: "ssor"}, want: []string{RungAMG}},
		{name: "converged, cache miss leaves no attempt", cache: func(*testing.T) *cache.Cache { return cache.New(0, 0) }, want: []string{RungAMG}},
		{name: "converged, cache holds the design", cache: func(t *testing.T) *cache.Cache { return donorCache(t, d) }, want: []string{RungAMGWarm}},
		{name: "converged, cache holds a neighbour", cache: func(t *testing.T) *cache.Cache { return donorCache(t, pgen.Perturb(d, 0.01, 5)) }, want: []string{RungAMGWarm}},
		{name: "budgeted, default precond runs SSOR", req: Solve{Iters: 5}, want: []string{RungSSOR}},
		{name: "budgeted ssor", req: Solve{Iters: 5, Precond: "ssor"}, want: []string{RungSSOR}},
		{name: "budgeted amg", req: Solve{Iters: 5, Precond: "amg"}, want: []string{RungAMG}},
		{name: "budgeted solves run cold whatever the cache has on offer",
			req: Solve{Iters: 5, Precond: "amg"}, cache: func(t *testing.T) *cache.Cache { return donorCache(t, d) }, want: []string{RungAMG}},
	}
	served := map[string]bool{}
	for _, tc := range cases {
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(context.Background(), rec)
		if tc.cache != nil {
			ctx = cache.WithCache(ctx, tc.cache(t))
		}
		req := tc.req
		req.Fingerprint = fp
		if _, err := Numerical(ctx, sys, make([]float64, sys.N()), req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		degs := rec.Manifest("t", nil).Degradations
		if len(degs) != 1 || degs[0].Degraded() {
			t.Fatalf("%s: degradations %+v, want one clean record", tc.name, degs)
		}
		var got []string
		for _, a := range degs[0].Attempts {
			got = append(got, a.Rung)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: attempts %v, want %v", tc.name, got, tc.want)
		}
		served[degs[0].Rung] = true
	}
	rec := obs.NewRecorder()
	if err := RoughLadder(obs.WithRecorder(context.Background(), rec), sys, make([]float64, sys.N()), 4); err != nil {
		t.Fatal(err)
	}
	served[rec.Manifest("t", nil).Degradations[0].Rung] = true
	for _, name := range []string{RungAMG, RungAMGWarm, RungSSOR, RungRough} {
		if !served[name] {
			t.Errorf("no solve is served by %s", name)
		}
	}
}

// TestCacheLookupsLeaveNoTrail: a cache rung that finds nothing leaves
// no attempt and does not push the serving rung's index — a cache miss
// is not a fallback. A repeat of the cached design is a warm start at
// delta 0 at index 0, and PCG hands the cached solution back at
// iteration 0, bit for bit, storing nothing.
func TestCacheLookupsLeaveNoTrail(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("trail", pgen.Real, 16, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	sys := assemble(t, d)
	req := Solve{Fingerprint: func() string { return cache.DesignFingerprint(d) }}
	base := cache.WithCache(context.Background(), cache.New(0, 0))

	rec := obs.NewRecorder()
	first := make([]float64, sys.N())
	if _, err := Numerical(obs.WithRecorder(base, rec), sys, first, req); err != nil {
		t.Fatal(err)
	}
	degs := rec.Manifest("t", nil).Degradations
	if len(degs) != 1 || degs[0].Degraded() || degs[0].Rung != RungAMG || degs[0].RungIndex != 0 || len(degs[0].Attempts) != 1 {
		t.Fatalf("cache misses left a trace on the cold solve: %+v", degs)
	}

	rec = obs.NewRecorder()
	x := make([]float64, sys.N())
	res, err := Numerical(obs.WithRecorder(base, rec), sys, x, req)
	if err != nil {
		t.Fatal(err)
	}
	m := rec.Manifest("t", nil)
	degs = m.Degradations
	if len(degs) != 1 || degs[0].Rung != RungAMGWarm || degs[0].RungIndex != 0 || len(degs[0].Attempts) != 1 {
		t.Fatalf("repeat: degradations %+v, want the warm rung alone at index 0", degs)
	}
	if res.Iterations != 0 || len(m.Solves) != 1 || m.Solves[0].Iterations != 0 {
		t.Fatalf("repeat ran %d PCG iteration(s) (solves %+v), want 0", res.Iterations, m.Solves)
	}
	if c := m.Cache; c == nil || len(c.Events) != 1 || c.Events[0].Outcome != obs.CacheWarm || c.Events[0].Delta != 0 { //irfusion:exact a repeat's matrix is the stored one, entry for entry
		t.Fatalf("repeat: cache section %+v, want one warm event at delta 0 and no store", m.Cache)
	}
	for i := range first {
		if math.Float64bits(x[i]) != math.Float64bits(first[i]) {
			t.Fatalf("repeat moved unknown %d: %x, cached %x", i, x[i], first[i])
		}
	}
}

// TestWarmDonorSurvivesItsVariants: an ECO loop solves many variants of
// one base design, and every one of them must warm-start off the base.
// A warm-started variant has no hierarchy to give, so it is not stored;
// stored, it would take a place in the neighbour search's window and,
// a window's worth of variants later, push the base out of it.
func TestWarmDonorSurvivesItsVariants(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("eco", pgen.Real, 48, 48, 9))
	if err != nil {
		t.Fatal(err)
	}
	sys := assemble(t, d)
	fp := cache.DesignFingerprint(d)
	ctx := cache.WithCache(context.Background(), cache.New(0, 0))
	if _, err := Numerical(ctx, sys, make([]float64, sys.N()), Solve{Fingerprint: func() string { return fp }}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 12; seed++ {
		v := pgen.Perturb(d, 0.005, seed)
		vsys := assemble(t, v)
		if delta := cache.Delta(vsys.G, sys.G); delta <= 0 || delta > cache.DefaultWarmDelta {
			t.Fatalf("variant %d: delta %g to the base outside (0, %g]", seed, delta, cache.DefaultWarmDelta)
		}
		rec := obs.NewRecorder()
		req := Solve{Fingerprint: func() string { return cache.DesignFingerprint(v) }}
		if _, err := Numerical(obs.WithRecorder(ctx, rec), vsys, make([]float64, vsys.N()), req); err != nil {
			t.Fatal(err)
		}
		m := rec.Manifest("t", nil)
		if len(m.Degradations) != 1 || m.Degradations[0].Rung != RungAMGWarm {
			t.Fatalf("variant %d served by %+v, want %s", seed, m.Degradations, RungAMGWarm)
		}
		if c := m.Cache; c == nil || c.WarmStarts != 1 || c.Events[0].Outcome != obs.CacheWarm || c.Events[0].Key != cache.ShortKey(fp) {
			t.Fatalf("variant %d: cache section %+v, want a warm start off the base %s", seed, m.Cache, cache.ShortKey(fp))
		}
	}
}

// donorCache returns an artifact cache holding a converged solve of d.
func donorCache(t *testing.T, d *pgen.Design) *cache.Cache {
	t.Helper()
	c := cache.New(0, 0)
	sys := assemble(t, d)
	req := Solve{Fingerprint: func() string { return cache.DesignFingerprint(d) }}
	if _, err := Numerical(cache.WithCache(context.Background(), c), sys, make([]float64, sys.N()), req); err != nil {
		t.Fatal(err)
	}
	return c
}

// assemble builds d's reduced system.
func assemble(t *testing.T, d *pgen.Design) *circuit.System {
	t.Helper()
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
