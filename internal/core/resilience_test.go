package core

import (
	"context"
	"testing"

	"irfusion/internal/dataset"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
)

// withFaults scopes a test's fault profile to its context. An empty
// spec binds an injector that never fires, so a test that asserts the
// undisturbed path stays true when the whole suite runs under a
// process-wide chaos profile (make chaos-smoke).
func withFaults(ctx context.Context, spec string) context.Context {
	if spec == "" {
		spec = "amg.setup:fail:p=0"
	}
	return faults.WithInjector(ctx, faults.MustParse(spec))
}

// TestLadderFaultClasses is the table-driven heart of the resilience
// suite: each injected fault class must land the numerical analyzer
// on the expected rung, with the expected degradation record in the
// manifest — one attempt per rung tried, whatever the fault.
func TestLadderFaultClasses(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("ladder", pgen.Fake, 24, 24, 7))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		spec     string // per-request injector spec
		wantRung string
		wantIdx  int // also the number of failed attempts before it
	}{
		{
			name:     "no faults serves the AMG rung cleanly",
			spec:     "",
			wantRung: plan.RungAMG,
			wantIdx:  0,
		},
		{
			name:     "persistent AMG-solve breakdown degrades to SSOR",
			spec:     "solver.pcg:breakdown:label=" + plan.RungAMG,
			wantRung: plan.RungSSOR,
			wantIdx:  1,
		},
		{
			// A breakdown is not retried: the same deterministic solve
			// would break down again, so the one the fault spent is the
			// AMG rung's only attempt.
			name:     "transient breakdown falls through to SSOR",
			spec:     "solver.pcg:breakdown:label=" + plan.RungAMG + ",times=1",
			wantRung: plan.RungSSOR,
			wantIdx:  1,
		},
		{
			name:     "AMG setup failure falls through without retry",
			spec:     "amg.setup:fail",
			wantRung: plan.RungSSOR,
			wantIdx:  1,
		},
		{
			// One attempt each on AMG and SSOR, then the Monte-Carlo rung
			// (no PCG) serves.
			name:     "indefinite operator on both PCG rungs reaches the random walk",
			spec:     "solver.pcg:indefinite",
			wantRung: plan.RungRandomWalk,
			wantIdx:  2,
		},
		{
			name:     "NaN poisoning surfaces as breakdown and degrades",
			spec:     "solver.pcg:nan:label=" + plan.RungAMG,
			wantRung: plan.RungSSOR,
			wantIdx:  1,
		},
	}
	cold := plan.Rungs(0, "", false)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			ctx := obs.WithRecorder(context.Background(), rec)
			ctx = withFaults(ctx, tc.spec)
			na := &NumericalAnalyzer{Resolution: 24}
			m, _, _, err := na.AnalyzeCtx(ctx, d)
			if err != nil {
				t.Fatalf("AnalyzeCtx: %v", err)
			}
			if m == nil || m.Max() <= 0 {
				t.Fatalf("degraded analysis returned an empty drop map")
			}
			man := rec.Manifest("test.ladder", nil)
			if err := man.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(man.Degradations) != 1 {
				t.Fatalf("want 1 degradation record, got %+v", man.Degradations)
			}
			deg := man.Degradations[0]
			if deg.Component != "core.numerical" {
				t.Errorf("component %q", deg.Component)
			}
			if deg.Rung != tc.wantRung || deg.RungIndex != tc.wantIdx {
				t.Errorf("served by rung %q (index %d), want %q (index %d); attempts: %+v",
					deg.Rung, deg.RungIndex, tc.wantRung, tc.wantIdx, deg.Attempts)
			}
			if deg.Exhausted {
				t.Errorf("record marked exhausted: %+v", deg)
			}
			if len(deg.Attempts) != tc.wantIdx+1 {
				t.Errorf("want %d attempts, got %+v", tc.wantIdx+1, deg.Attempts)
			}
			for i, a := range deg.Attempts[:min(len(deg.Attempts)-1, len(cold))] {
				if a.Rung != cold[i] || a.Error == "" {
					t.Errorf("attempt %d should be the failed rung %s: %+v", i, cold[i], a)
				}
			}
			last := deg.Attempts[len(deg.Attempts)-1]
			if last.Rung != tc.wantRung || last.Error != "" {
				t.Errorf("final attempt should be the clean serve: %+v", last)
			}
			// The winning solve trace carries the rung label (the
			// manifest says which backend produced the numbers).
			found := false
			for _, s := range man.Solves {
				if s.Label == tc.wantRung {
					found = true
				}
			}
			if !found {
				t.Errorf("no solve labeled %q in %+v", tc.wantRung, man.Solves)
			}
		})
	}
}

// TestFusedLadderStructureOnly drives the real core.fused.rough ladder
// down every rung: with both numerical backends of the fused pipeline
// failing, the analysis still serves — from structural features alone,
// with the rough map at zero — and the manifest says so.
func TestFusedLadderStructureOnly(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, _ := tinySet(t, cfg, 2, 0)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analyzer
	d, err := pgen.Generate(pgen.DefaultConfig("struct-only", pgen.Fake, 24, 24, 9))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	// The budgeted PCG rung sees an indefinite operator; the random walk
	// honours only "fail".
	ctx := withFaults(obs.WithRecorder(context.Background(), rec),
		"solver.pcg:indefinite:label="+plan.RungRough+";solver.pcg:fail:label="+plan.RungRoughRW)
	m, _, err := a.AnalyzeCtx(ctx, d)
	if err != nil {
		t.Fatalf("fused analyze under faults: %v", err)
	}
	if m == nil {
		t.Fatal("no prediction")
	}
	man := rec.Manifest("test.fused", nil)
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Degradations) != 1 {
		t.Fatalf("want one degradation record, got %+v", man.Degradations)
	}
	deg := man.Degradations[0]
	if deg.Component != "core.fused.rough" || deg.Rung != plan.RungStructOnly || deg.RungIndex != 2 || len(deg.Attempts) != 3 {
		t.Fatalf("degradation record %+v, want %s served at index 2 after one attempt on each numerical rung",
			deg, plan.RungStructOnly)
	}

	// The sample the prediction was made from carries a zero rough map.
	opts := a.Config.DatasetOptions()
	opts.RoughSolver = a.RoughSolver(0)
	s, err := dataset.BuildInferenceCtx(ctx, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.RoughBottom.Data {
		if v != 0 { //irfusion:exact structure-only stores literal zeros
			t.Fatalf("structure-only left a non-zero rough map: %v", v)
		}
	}
}
