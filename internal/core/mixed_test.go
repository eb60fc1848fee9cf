package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/spice"
)

// illConditionedDesign builds the pinned refinement-stagnation deck: a
// generated grid whose resistors are split deterministically into two
// populations 1e10 apart in value. The resulting conductance contrast
// is far beyond 1/eps32 (~8.4e6), so the float32 V-cycle loses the
// small-conductance corrections to rounding and mixed-precision
// refinement stalls around 1e-5 relative residual — while the float64
// AMG rung still converges to 1e-10. (Empirically the mixed path
// stagnates from contrast ~1e8 up; 1e10 pins it with margin.)
func illConditionedDesign(t *testing.T) *pgen.Design {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("illcond", pgen.Real, 24, 24, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	nl := &spice.Netlist{Title: d.Netlist.Title}
	for _, e := range d.Netlist.Elements {
		if e.Type == spice.Resistor && rng.Intn(2) == 0 {
			e.Value *= 1e10
		}
		nl.Elements = append(nl.Elements, e)
	}
	return &pgen.Design{Name: "illcond", Class: d.Class, W: d.W, H: d.H, VDD: d.VDD, Netlist: nl}
}

// TestMixedPrecisionRungServes pins the happy path: on a
// well-conditioned deck the Precision "mixed" analyzer is served by
// the numerical.amg.mp rung on the first attempt (no degradation),
// and the manifest's solve record carries precision "mixed".
func TestMixedPrecisionRungServes(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("mp", pgen.Real, 24, 24, 9))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	na := &NumericalAnalyzer{Resolution: 24, Precision: "mixed"}
	m, _, resid, err := na.AnalyzeCtx(ctx, d)
	if err != nil {
		t.Fatalf("AnalyzeCtx: %v", err)
	}
	if m == nil || m.Max() <= 0 {
		t.Fatal("empty drop map")
	}
	if resid > 1e-9 {
		t.Errorf("mixed solve residual %g, want converged", resid)
	}
	man := rec.Manifest("test.mp", nil)
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Degradations) != 1 {
		t.Fatalf("want 1 degradation record, got %+v", man.Degradations)
	}
	deg := man.Degradations[0]
	if deg.Rung != plan.RungAMGMP || deg.RungIndex != 0 || deg.Degraded() {
		t.Errorf("served by %q (index %d, degraded %v), want clean %q",
			deg.Rung, deg.RungIndex, deg.Degraded(), plan.RungAMGMP)
	}
	if len(man.Solves) != 1 || man.Solves[0].Precision != obs.PrecisionMixed {
		t.Fatalf("want one solve with precision %q, got %+v", obs.PrecisionMixed, man.Solves)
	}
	if man.Solves[0].Label != plan.RungAMGMP {
		t.Errorf("solve label %q, want %q", man.Solves[0].Label, plan.RungAMGMP)
	}
}

// TestMixedPrecisionStagnationFallsBack is the regression test of the
// degradation contract: on the pinned ill-conditioned deck the mixed
// rung stagnates, the ladder classifies that as structural (no
// retries) and falls to the full-precision AMG rung, the analysis
// still converges, and the manifest trail proves the whole story —
// a failed numerical.amg.mp attempt naming the stagnation, service by
// numerical.amg, and a final solve at full precision matching the map
// a full-precision analyzer computes outright.
func TestMixedPrecisionStagnationFallsBack(t *testing.T) {
	d := illConditionedDesign(t)

	rec := obs.NewRecorder()
	ctx := withFaults(obs.WithRecorder(context.Background(), rec), "")
	na := &NumericalAnalyzer{Resolution: 24, Precision: "mixed"}
	m, _, resid, err := na.AnalyzeCtx(ctx, d)
	if err != nil {
		t.Fatalf("AnalyzeCtx: %v", err)
	}
	if resid > 1e-9 {
		t.Errorf("fallback solve residual %g, want converged", resid)
	}

	man := rec.Manifest("test.mp.stagnation", nil)
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(man.Degradations) != 1 {
		t.Fatalf("want 1 degradation record, got %+v", man.Degradations)
	}
	deg := man.Degradations[0]
	if !deg.Degraded() {
		t.Fatalf("record reports a clean solve; want a fallback trail: %+v", deg)
	}
	if deg.Rung != plan.RungAMG || deg.RungIndex != 1 {
		t.Errorf("served by %q (index %d), want %q (index 1); attempts: %+v",
			deg.Rung, deg.RungIndex, plan.RungAMG, deg.Attempts)
	}
	if len(deg.Attempts) < 2 || deg.Attempts[0].Rung != plan.RungAMGMP {
		t.Fatalf("want the trail to open with a failed %q attempt, got %+v", plan.RungAMGMP, deg.Attempts)
	}
	if a := deg.Attempts[0]; a.Error == "" || !strings.Contains(a.Error, "stagnated") {
		t.Errorf("mp attempt error %q, want a stagnation diagnosis", a.Error)
	}
	if a := deg.Attempts[0]; a.Attempt != 1 {
		t.Errorf("stagnation retried (%d attempts on the mp rung); structural errors must fall through immediately", a.Attempt)
	}

	// Both the failed mixed attempt and the serving full-precision
	// solve appear, each tagged with its arithmetic path.
	var sawMixed, sawFull bool
	for _, s := range man.Solves {
		switch s.Precision {
		case obs.PrecisionMixed:
			sawMixed = true
			if s.Converged {
				t.Errorf("stagnated mixed solve recorded as converged: %+v", s)
			}
		case obs.PrecisionFull:
			if s.Label == plan.RungAMG && s.Converged {
				sawFull = true
			}
		}
	}
	if !sawMixed || !sawFull {
		t.Fatalf("want a mixed (failed) and a full (converged) solve record, got %+v", man.Solves)
	}

	// The degraded answer is the full-precision answer: an analyzer
	// asked for full precision outright must land on the same map.
	full := &NumericalAnalyzer{Resolution: 24}
	fm, _, _, err := full.AnalyzeCtx(withFaults(context.Background(), ""), d)
	if err != nil {
		t.Fatalf("full-precision AnalyzeCtx: %v", err)
	}
	worst := 0.0
	for i := range m.Data {
		if diff := math.Abs(m.Data[i] - fm.Data[i]); diff > worst {
			worst = diff
		}
	}
	if worst > 1e-9 {
		t.Errorf("fallback map differs from the full-precision map by %g", worst)
	}
}
