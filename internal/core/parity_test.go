package core

import (
	"context"
	"math"
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/dataset"
	"irfusion/internal/plan"
)

// TestTrainServeRoughParity pins the premise of the fusion pipeline:
// the rough solution the model is trained on (dataset.Build with no
// hook) and the one it is served (Analyzer.RoughSolver) are the same
// bits for the same system and budget.
func TestTrainServeRoughParity(t *testing.T) {
	d := cacheTestDesign(t)
	cfg := Default(24)
	a := &Analyzer{Config: cfg}

	trained, err := dataset.BuildCtx(context.Background(), d, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.DatasetOptions()
	opts.RoughSolver = a.RoughSolver(0)
	served, err := dataset.BuildCtx(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(trained.RoughBottom.Data) == 0 {
		t.Fatal("no rough map")
	}
	for i, v := range trained.RoughBottom.Data {
		if math.Float64bits(v) != math.Float64bits(served.RoughBottom.Data[i]) {
			t.Fatalf("rough maps differ at %d: trained %g, served %g", i, v, served.RoughBottom.Data[i])
		}
	}

	// And at the solver boundary, before any rasterization: the hook and
	// the built-in solve fill bit-identical x.
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	x1, x2 := make([]float64, sys.N()), make([]float64, sys.N())
	if err := plan.Rough(context.Background(), sys, x1, cfg.RoughIters); err != nil {
		t.Fatal(err)
	}
	if err := a.RoughSolver(0)(context.Background(), sys, x2); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("x differs at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}
