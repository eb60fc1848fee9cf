package core

import (
	"context"
	"errors"
	"testing"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
)

// TestLadderFaultClasses is the table-driven heart of the resilience
// suite: with no fault the numerical analyzer is served by cold
// AMG-PCG, its one cold rung, and each injected fault class on that
// rung exhausts the ladder — ErrLadderExhausted, no map, and one
// exhausted degradation record with exactly the rungs tried, one
// attempt each, whatever the fault.
func TestLadderFaultClasses(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("ladder", pgen.Fake, 24, 24, 7))
	if err != nil {
		t.Fatal(err)
	}
	amgOnly := []string{plan.RungAMG}
	cases := []struct {
		name  string
		fault faults.Rule // the request's one fault; none when Site is empty
		tried []string    // the rungs an exhausted ladder tried; nil: AMG serves
	}{
		{name: "no faults serves the AMG rung cleanly"},
		{name: "persistent AMG-solve breakdown exhausts the ladder",
			fault: faults.Rule{Site: faults.SitePCG, Action: faults.ActBreakdown, Label: plan.RungAMG}, tried: amgOnly},
		// A breakdown is not retried: the same deterministic solve would
		// break down again, so the one the fault spent is the AMG rung's
		// only attempt.
		{name: "transient breakdown is not retried",
			fault: faults.Rule{Site: faults.SitePCG, Action: faults.ActBreakdown, Label: plan.RungAMG, Times: 1}, tried: amgOnly},
		{name: "AMG setup failure falls through without retry",
			fault: faults.Rule{Site: faults.SiteAMGSetup, Action: faults.ActFail}, tried: amgOnly},
		{name: "NaN poisoning surfaces as breakdown and exhausts",
			fault: faults.Rule{Site: faults.SitePCG, Action: faults.ActNaN, Label: plan.RungAMG}, tried: amgOnly},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			ctx := obs.WithRecorder(context.Background(), rec)
			if tc.fault.Site != "" {
				ctx = faults.WithInjector(ctx, faults.New(tc.fault))
			}
			na := &NumericalAnalyzer{Resolution: 24}
			m, _, _, err := na.AnalyzeCtx(ctx, d)
			man := rec.Manifest("test.ladder", nil)
			if err := man.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(man.Degradations) != 1 || man.Degradations[0].Component != "core.numerical" {
				t.Fatalf("want one core.numerical degradation record, got %+v", man.Degradations)
			}
			deg := man.Degradations[0]
			if tc.tried == nil {
				if err != nil || m == nil || m.Max() <= 0 {
					t.Fatalf("AnalyzeCtx: %v, want a drop map", err)
				}
				if deg.Rung != plan.RungAMG || deg.RungIndex != 0 || deg.Exhausted || len(deg.Attempts) != 1 || deg.Attempts[0].Error != "" {
					t.Errorf("degradation record %+v, want %s served cleanly at index 0", deg, plan.RungAMG)
				}
				if len(man.Solves) != 1 || man.Solves[0].Label != plan.RungAMG {
					t.Errorf("want one solve labeled %q, got %+v", plan.RungAMG, man.Solves)
				}
				return
			}
			if !errors.Is(err, plan.ErrLadderExhausted) || m != nil {
				t.Fatalf("AnalyzeCtx: map %v, error %v; want no map and %v", m != nil, err, plan.ErrLadderExhausted)
			}
			if !deg.Exhausted || deg.Rung != "" || len(deg.Attempts) != len(tc.tried) {
				t.Fatalf("degradation record %+v, want exhausted after %v", deg, tc.tried)
			}
			for i, a := range deg.Attempts {
				if a.Rung != tc.tried[i] || a.Error == "" {
					t.Errorf("attempt %d is %+v, want the failed rung %s", i, a, tc.tried[i])
				}
			}
		})
	}
}

// TestFusedLadderExhausted drives the real core.fused.rough ladder into
// a failure: its one rung, the budgeted rough solve, sees an indefinite
// operator, so the fused analysis fails with ErrLadderExhausted, before
// any inference, and the manifest keeps the exhausted record.
func TestFusedLadderExhausted(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, _ := tinySet(t, cfg, 2, 0)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pgen.Generate(pgen.DefaultConfig("exhausted", pgen.Fake, 24, 24, 9))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := faults.WithInjector(obs.WithRecorder(context.Background(), rec),
		faults.New(faults.Rule{Site: faults.SitePCG, Action: faults.ActIndefinite, Label: plan.RungRough}))
	m, _, err := res.Analyzer.AnalyzeCtx(ctx, d)
	if !errors.Is(err, plan.ErrLadderExhausted) || m != nil {
		t.Fatalf("fused analyze: map %v, error %v; want no map and %v", m != nil, err, plan.ErrLadderExhausted)
	}
	man := rec.Manifest("test.fused", nil)
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Degradations) != 1 {
		t.Fatalf("want one degradation record, got %+v", man.Degradations)
	}
	deg := man.Degradations[0]
	if deg.Component != "core.fused.rough" || !deg.Exhausted || len(deg.Attempts) != 1 ||
		deg.Attempts[0].Rung != plan.RungRough || deg.Attempts[0].Error == "" {
		t.Fatalf("degradation record %+v, want core.fused.rough exhausted after one failed %s attempt", deg, plan.RungRough)
	}
}
