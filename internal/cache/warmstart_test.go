package cache

import (
	"context"
	"math"
	"testing"

	"irfusion/internal/amg"
	"irfusion/internal/circuit"
	"irfusion/internal/faults"
	"irfusion/internal/pgen"
	"irfusion/internal/solver"
	"irfusion/internal/sparse"
)

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// warmFixture assembles a pinned golden design, its converged
// solution, and its AMG hierarchy — the donor artifact of every
// warm-start test.
type warmFixture struct {
	design *pgen.Design
	sys    *circuit.System
	golden []float64
	hier   *amg.Hierarchy
}

func buildWarmFixture(t *testing.T) *warmFixture {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("warm", pgen.Real, 24, 24, 13))
	if err != nil {
		t.Fatal(err)
	}
	sys := assemble(t, d)
	h, err := amg.Build(sys.G, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, sys.N())
	res, err := solver.PCG(sys.G, x, sys.I, h, solver.DefaultOptions())
	if err != nil || !res.Converged {
		t.Fatalf("golden solve: err=%v converged=%v", err, res.Converged)
	}
	return &warmFixture{design: d, sys: sys, golden: x, hier: h}
}

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

// coldSolve solves sys from zero with the named preconditioner,
// building fresh setup — the reference each warm start must match.
func coldSolve(t *testing.T, sys *circuit.System, precond string) []float64 {
	t.Helper()
	var pre solver.Preconditioner
	switch precond {
	case "amg":
		h, err := amg.Build(sys.G, amg.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pre = h
	case "ssor":
		pre = solver.NewSSOR(sys.G, 2)
	default:
		t.Fatalf("unknown preconditioner %q", precond)
	}
	x := make([]float64, sys.N())
	res, err := solver.PCG(sys.G, x, sys.I, pre, solver.DefaultOptions())
	if err != nil || !res.Converged {
		t.Fatalf("cold %s solve: err=%v converged=%v", precond, err, res.Converged)
	}
	return x
}

// TestWarmStartEquivalence is the correctness contract of the
// delta-solve path: for the pinned golden design and ECO-style
// perturbed variants on both PCG backends, a solve warm-started from
// the cached donor (initial guess = donor golden; for AMG, donor
// hierarchy clone as preconditioner) must agree with a cold
// from-scratch solve to GuardTol. The donor hierarchy is a foreign
// preconditioner on a perturbed matrix — flexible PCG tolerates that,
// and the preconditioner only shapes the iteration path, never the
// fixed point.
func TestWarmStartEquivalence(t *testing.T) {
	f := buildWarmFixture(t)
	cases := []struct {
		name    string
		perturb float64
		seed    int64
	}{
		{"identical", 0, 0},
		{"eco-small", 0.005, 21},
		{"eco-at-budget", 0.02, 22},
	}
	for _, precond := range []string{"amg", "ssor"} {
		for _, tc := range cases {
			t.Run(precond+"/"+tc.name, func(t *testing.T) {
				d := f.design
				if tc.perturb > 0 {
					d = pgen.Perturb(f.design, tc.perturb, tc.seed)
				}
				sys := assemble(t, d)
				cold := coldSolve(t, sys, precond)

				// Warm start: donor golden as initial guess, donor
				// hierarchy (cloned) as the AMG preconditioner.
				warm := append([]float64(nil), f.golden...)
				var pre solver.Preconditioner
				if precond == "amg" {
					pre = f.hier.Clone()
				} else {
					pre = solver.NewSSOR(sys.G, 2)
				}
				res, err := solver.PCG(sys.G, warm, sys.I, pre, solver.DefaultOptions())
				if err != nil || !res.Converged {
					t.Fatalf("warm solve: err=%v converged=%v", err, res.Converged)
				}
				if diff := maxDiff(warm, cold); diff > GuardTol {
					t.Fatalf("warm and cold disagree by %g (tol %g)", diff, GuardTol)
				}
			})
		}
	}
}

// TestFindWarmStartThresholds pins the donor-qualification semantics:
// a neighbor qualifies when its measured matrix delta is at or below
// the budget and is rejected above it, and the identical design is
// always the preferred (delta-0) donor.
func TestFindWarmStartThresholds(t *testing.T) {
	f := buildWarmFixture(t)
	c := New(0, 0)
	ctx := context.Background()
	StoreSystem(ctx, c, "test", &SystemArtifact{
		Fingerprint: DesignFingerprint(f.design),
		N:           f.sys.N(), G: f.sys.G, I: f.sys.I,
		Golden: f.golden, Hier: f.hier,
	})

	eco := pgen.Perturb(f.design, 0.01, 31)
	ecoSys := assemble(t, eco)
	d := Delta(ecoSys.G, f.sys.G)
	if d <= 0 || d >= 1 {
		t.Fatalf("perturbed delta = %g, want a real fractional change", d)
	}

	// Below budget: measured delta within the default budget qualifies.
	if d <= DefaultWarmDelta {
		nb, got, err := FindWarmStart(ctx, c, ecoSys.G, 0)
		if err != nil || nb == nil {
			t.Fatalf("below-budget neighbor not found: nb=%v err=%v", nb, err)
		}
		if got != d { //irfusion:exact FindWarmStart reports the Delta it measured; same computation, same bits
			t.Fatalf("reported delta %g != measured %g", got, d)
		}
	}
	// At budget: maxDelta exactly equal to the measured delta qualifies.
	if nb, _, err := FindWarmStart(ctx, c, ecoSys.G, d); err != nil || nb == nil {
		t.Fatalf("at-budget neighbor rejected: nb=%v err=%v", nb, err)
	}
	// Above budget: a budget below the measured delta forces cold.
	if nb, _, _ := FindWarmStart(ctx, c, ecoSys.G, d/2); nb != nil {
		t.Fatal("above-budget neighbor qualified; want the cold path")
	}
	// Identical matrix: delta 0, always qualifies.
	nb, got, err := FindWarmStart(ctx, c, f.sys.G, 0)
	if err != nil || nb == nil || got != 0 {
		t.Fatalf("identical design: nb=%v delta=%g err=%v", nb, got, err)
	}

	// An artifact without a hierarchy could never donate: it is not
	// stored at all.
	c2 := New(0, 0)
	StoreSystem(ctx, c2, "test", &SystemArtifact{
		Fingerprint: "x", N: f.sys.N(), G: f.sys.G, I: f.sys.I, Golden: f.golden,
	})
	if c2.Len() != 0 {
		t.Fatal("hierarchy-less artifact was stored")
	}
}

// TestDelta pins the merge-walk distance measure itself.
func TestDelta(t *testing.T) {
	f := buildWarmFixture(t)
	if d := Delta(f.sys.G, f.sys.G); d != 0 { //irfusion:exact identical operand must be distance zero
		t.Fatalf("Delta(G, G) = %g", d)
	}
	if d := Delta(f.sys.G, nil); d != 1 { //irfusion:exact nil operand is maximally distant by contract
		t.Fatalf("Delta(G, nil) = %g", d)
	}
	tr := sparse.NewTriplet(2, 2, 2)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	small := tr.ToCSR()
	if d := Delta(f.sys.G, small); d != 1 { //irfusion:exact shape mismatch is maximally distant by contract
		t.Fatalf("Delta shape mismatch = %g", d)
	}
	// Monotonic in perturbation strength on real assemblies.
	d1 := Delta(assemble(t, pgen.Perturb(f.design, 0.01, 7)).G, f.sys.G)
	d2 := Delta(assemble(t, pgen.Perturb(f.design, 0.3, 7)).G, f.sys.G)
	if !(d1 > 0 && d2 > d1) {
		t.Fatalf("delta not monotonic: d(1%%)=%g d(30%%)=%g", d1, d2)
	}
}

// TestFindWarmStartStaleFault: the cache.lookup stale fault hands the
// caller a copy of the donor whose golden solution fails the residual
// guard, and leaves the stored artifact as it was.
func TestFindWarmStartStaleFault(t *testing.T) {
	f := buildWarmFixture(t)
	c := New(0, 0)
	art := &SystemArtifact{
		Fingerprint: DesignFingerprint(f.design), N: f.sys.N(), G: f.sys.G, I: f.sys.I,
		Golden: f.golden, Hier: f.hier,
	}
	StoreSystem(context.Background(), c, "test", art)
	ctx := faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: faults.SiteCacheLookup, Action: faults.ActStale}))
	stale, delta, err := FindWarmStart(ctx, c, f.sys.G, 0)
	if err != nil || stale == nil || stale == art || delta != 0 {
		t.Fatalf("stale lookup: donor %p (stored %p), delta %g, err %v; want a copy at delta 0", stale, art, delta, err)
	}
	if r := solver.RelResidual(f.sys.G, stale.Golden, f.sys.I); r <= GuardTol {
		t.Fatalf("poisoned donor passes the guard: %g", r)
	}
	healthy, _, _ := FindWarmStart(context.Background(), c, f.sys.G, 0)
	if healthy != art {
		t.Fatal("the stale fault replaced the stored artifact")
	}
	if r := solver.RelResidual(f.sys.G, healthy.Golden, f.sys.I); r > GuardTol {
		t.Fatalf("healthy donor fails the guard: %g", r)
	}
	if nb, _, _ := FindWarmStart(ctx, nil, f.sys.G, 0); nb != nil {
		t.Fatal("nil cache returned a donor")
	}
}
