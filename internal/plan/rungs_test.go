package plan

import (
	"context"
	"slices"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

// TestRungsPolicy is the solve policy as a table: request in, ordered
// rung names out. Reading this replaces reading the analyzer to learn
// the ladder order.
func TestRungsPolicy(t *testing.T) {
	cold := []string{RungAMG}
	cases := []struct {
		name    string
		iters   int
		precond string
		cached  bool
		want    []string
	}{
		{name: "converged, no cache", want: cold},
		{name: "converged, ssor precond still runs AMG", precond: "ssor", want: cold},
		{name: "converged, cache", cached: true,
			want: []string{RungHit, RungAMGResume, RungAMGWarm, RungAMG}},
		{name: "budgeted, default precond runs SSOR", iters: 5, want: []string{RungSSOR}},
		{name: "budgeted ssor", iters: 5, precond: "ssor", want: []string{RungSSOR}},
		{name: "budgeted amg", iters: 5, precond: "amg", want: cold},
		{name: "budgeted solves run cold whatever the cache has on offer",
			iters: 5, precond: "amg", cached: true, want: cold},
	}
	for _, tc := range cases {
		got := Rungs(tc.iters, tc.precond, tc.cached)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: Rungs = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEveryListedRungExists: a rung list is names; every name any list
// can hold must be in the table.
func TestEveryListedRungExists(t *testing.T) {
	lists := [][]string{fusedRoughRungs}
	for _, iters := range []int{0, 3} {
		for _, precond := range []string{"amg", "ssor"} {
			lists = append(lists, Rungs(iters, precond, true))
		}
	}
	listed := map[string]bool{}
	for _, l := range lists {
		for _, name := range l {
			listed[name] = true
			if _, ok := rungTable[name]; !ok {
				t.Errorf("rung %q is listed but not in the table", name)
			}
		}
	}
	for name := range rungTable {
		if !listed[name] {
			t.Errorf("rung %q is in the table but on no list", name)
		}
	}
}

// TestCacheLookupsLeaveNoTrail: a cache rung that finds nothing leaves
// no attempt and does not push the serving rung's index — a cache miss
// is not a fallback — and an exact hit is served without a degradation
// record, on the one lookup that found it (the lookups behind it are
// never made).
func TestCacheLookupsLeaveNoTrail(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("trail", pgen.Real, 16, 16, 3))
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
	req := Solve{Fingerprint: func() string { return cache.DesignFingerprint(d) }}
	c := cache.New(0, 0)
	base := cache.WithCache(context.Background(), c)

	rec := obs.NewRecorder()
	if _, err := Numerical(obs.WithRecorder(base, rec), sys, make([]float64, sys.N()), req); err != nil {
		t.Fatal(err)
	}
	degs := rec.Manifest("t", nil).Degradations
	if len(degs) != 1 || degs[0].Degraded() || degs[0].Rung != RungAMG || degs[0].RungIndex != 0 || len(degs[0].Attempts) != 1 {
		t.Fatalf("cache misses left a trace on the cold solve: %+v", degs)
	}

	rec = obs.NewRecorder()
	before := c.Stats()
	if _, err := Numerical(obs.WithRecorder(base, rec), sys, make([]float64, sys.N()), req); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("exact hit made %d hit(s) and %d miss(es) on the cache; want 1 and 0",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	m := rec.Manifest("t", nil)
	if len(m.Degradations) != 0 || len(m.Solves) != 0 || m.Cache == nil || m.Cache.Hits != 1 {
		t.Fatalf("exact hit: degradations %+v, solves %+v, cache %+v; want one hit event and nothing else",
			m.Degradations, m.Solves, m.Cache)
	}
}
