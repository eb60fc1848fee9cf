package plan_test

import (
	"context"
	"math"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/dataset"
	"irfusion/internal/faults"
	"irfusion/internal/features"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/sparse"
)

func assemble(t *testing.T, d *pgen.Design) (*circuit.Network, *circuit.System) {
	t.Helper()
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return nw, sys
}

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// servingRung returns the rung the manifest names for component.
func servingRung(t *testing.T, rec *obs.Recorder, component string) string {
	t.Helper()
	for _, deg := range rec.Manifest("test.paths", nil).Degradations {
		if deg.Component == component {
			return deg.Rung
		}
	}
	t.Fatalf("manifest has no %s degradation record", component)
	return ""
}

// TestSolvePathsAgree is the differential test over the solve paths:
// one fixed deck, solved down every path a request can take — cold,
// a repeat (a warm start at delta 0), warm neighbour, each budgeted
// backend, the fused rough ladder, and dataset.Build's label solve.
// Every path must name, in its manifest, the rung the scenario was
// built to reach, and every converged path must return the
// sparse-Cholesky answer — which shares no code with the iterative
// backends — to 1e-8. A new backend or policy branch gets its row
// here, not a hand-written suite.
func TestSolvePathsAgree(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("paths", pgen.Real, 24, 24, 17))
	if err != nil {
		t.Fatal(err)
	}
	nw, sys := assemble(t, d)
	fp := cache.DesignFingerprint(d)
	ch, err := sparse.NewCholesky(sys.G)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, sys.N())
	ch.Solve(ref, sys.I)

	neighbour := pgen.Perturb(d, 0.01, 5)
	bg := context.Background()

	// solved returns a cache that has seen a converged solve of x.
	solved := func(x *pgen.Design) *cache.Cache {
		c := cache.New(0, 0)
		_, xs := assemble(t, x)
		req := plan.Solve{Fingerprint: func() string { return cache.DesignFingerprint(x) }}
		if _, err := plan.Numerical(cache.WithCache(bg, c), xs, make([]float64, xs.N()), req); err != nil {
			t.Fatal(err)
		}
		return c
	}
	empty := func() *cache.Cache { return cache.New(0, 0) }

	paths := []struct {
		name  string
		req   plan.Solve
		cache func() *cache.Cache // nil: no artifact cache
		fault faults.Rule         // none when Site is empty
		want  string
	}{
		{name: "cold", want: plan.RungAMG},
		{name: "cold, cache miss", cache: empty, want: plan.RungAMG},
		// An exact hit is a warm start at delta 0.
		{name: "exact hit", cache: func() *cache.Cache { return solved(d) }, want: plan.RungAMGWarm},
		{name: "warm neighbour", cache: func() *cache.Cache { return solved(neighbour) }, want: plan.RungAMGWarm},
		{name: "stale donor still converges", cache: func() *cache.Cache { return solved(d) }, fault: faults.Rule{Site: faults.SiteCacheLookup, Action: faults.ActStale}, want: plan.RungAMGWarm},
		{name: "ssor-first budgeted", req: plan.Solve{Iters: 50, Precond: "ssor"}, want: plan.RungSSOR},
		{name: "amg-first budgeted", req: plan.Solve{Iters: 50, Precond: "amg"}, want: plan.RungAMG},
	}
	reached := map[string]bool{}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			ctx := obs.WithRecorder(bg, rec)
			if p.fault.Site != "" {
				ctx = faults.WithInjector(ctx, faults.New(p.fault))
			}
			req := p.req
			req.Fingerprint = func() string { return fp }
			var c *cache.Cache
			if p.cache != nil {
				c = p.cache()
				ctx = cache.WithCache(ctx, c)
			}
			stores := c.Stats().Stores
			x := make([]float64, sys.N())
			res, err := plan.Numerical(ctx, sys, x, req)
			if err != nil {
				t.Fatal(err)
			}
			if got := servingRung(t, rec, "core.numerical"); got != p.want {
				t.Fatalf("served by %q, want %q", got, p.want)
			}
			reached[p.want] = true
			if diff := maxDiff(ref, x); diff > 1e-8 {
				t.Fatalf("solution differs from the Cholesky answer by %g", diff)
			}
			if c != nil && req.Iters <= 0 && res.Converged {
				// Only a solve that built its own hierarchy can donate,
				// and only such a solve is kept.
				built := p.want != plan.RungAMGWarm
				if stored := c.Stats().Stores > stores; stored != built {
					t.Errorf("solve served by %s stored a donor: %v, want %v", p.want, stored, built)
				}
				if nb, _, _ := cache.FindWarmStart(bg, c, sys.G, 0); built && (nb == nil || nb.Fingerprint != fp) {
					t.Error("converged solve of an addressed design was not kept")
				}
			}
		})
	}
	for _, name := range []string{plan.RungAMG, plan.RungAMGWarm, plan.RungSSOR} {
		if !reached[name] {
			t.Errorf("Numerical can be served by %s but no path above reaches it", name)
		}
	}

	// The label ladder of dataset.Build: one cold AMG-PCG rung, even
	// over a cache holding this very solve.
	refMap := features.GoldenMap(nw, sys.FullDrops(ref), 24, 24)
	t.Run("dataset.Build cold", func(t *testing.T) {
		rec := obs.NewRecorder()
		s, err := dataset.BuildCtx(cache.WithCache(obs.WithRecorder(bg, rec), solved(d)), d, dataset.DefaultOptions(24, 24))
		if err != nil {
			t.Fatal(err)
		}
		if got := servingRung(t, rec, "dataset.golden"); got != plan.RungAMG {
			t.Fatalf("label served by %q, want %q", got, plan.RungAMG)
		}
		if diff := maxDiff(refMap.Data, s.Golden.Data); diff > 1e-8 {
			t.Fatalf("label differs from the Cholesky answer by %g", diff)
		}
	})
	t.Run("a label that cannot converge is an error", func(t *testing.T) {
		_, err := dataset.BuildCtx(faults.WithInjector(bg, faults.New(faults.Rule{Site: faults.SiteAMGSetup, Action: faults.ActFail})), d, dataset.DefaultOptions(24, 24))
		if err == nil {
			t.Fatal("label solve degraded below AMG-PCG instead of failing")
		}
	})

	// The fused rough ladder serves from the bare rung dataset.Build
	// trains on.
	t.Run("rough ladder rough", func(t *testing.T) {
		bare := make([]float64, sys.N())
		if err := plan.Rough(bg, sys, bare, 4); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		x := make([]float64, sys.N())
		x[0] = 1 // a rung must not trust what it is handed
		if err := plan.RoughLadder(obs.WithRecorder(bg, rec), sys, x, 4); err != nil {
			t.Fatal(err)
		}
		if got := servingRung(t, rec, "core.fused.rough"); got != plan.RungRough {
			t.Fatalf("served by %q, want %q", got, plan.RungRough)
		}
		if maxDiff(bare, x) != 0 { //irfusion:exact the served rough solve and the trained-on one are the same function
			t.Fatal("ladder's rough rung and the bare rough solve fill different x")
		}
	})
}
