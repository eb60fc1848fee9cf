package amg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irfusion/internal/amg"
	"irfusion/internal/circuit"
	"irfusion/internal/pgen"
	"irfusion/internal/solver"
)

// gridSystem assembles the real-class pgen design of the given die
// size and seed 1001 — the decks every size-axis table in
// EXPERIMENTS.md "AMG at its arithmetic cost" was measured on.
func gridSystem(t *testing.T, die int) *circuit.System {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("amg", pgen.Real, die, die, 1001))
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
	return sys
}

func TestSweepResidualOnPowerGrid(t *testing.T) {
	h, err := amg.Build(gridSystem(t, 64).G, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i, lvl := range h.Levels {
		amg.CheckSweepResidual(t, fmt.Sprintf("64 µm level %d", i), lvl.A, rng)
	}
}

// TestHierarchyShape128 pins what the setup builds on the 128 µm deck:
// forming each coarse operator by aggregation, and the second pairwise
// pass on the intermediate operator, must coarsen exactly as the
// generic triple products did.
func TestHierarchyShape128(t *testing.T) {
	h, err := amg.Build(gridSystem(t, 128).G, amg.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{5850, 21002}, {1601, 8255}, {449, 4341}, {124, 1504}, {37, 357}}
	if h.NumLevels() != len(want) {
		t.Fatalf("%d levels, want %d", h.NumLevels(), len(want))
	}
	for i, lvl := range h.Levels {
		if got := [2]int{lvl.A.Rows(), lvl.A.NNZ()}; got != want[i] {
			t.Errorf("level %d is %d rows / %d nnz, want %d / %d", i, got[0], got[1], want[i][0], want[i][1])
		}
	}
	if oc := h.OperatorComplexity(); math.Abs(oc-35459.0/21002) > 1e-12 {
		t.Errorf("operator complexity %v, want %v", oc, 35459.0/21002)
	}
}

// TestConvergedIterationBand: accelerating the first coarse level only
// must keep the converged iteration count flat over the size axis (a
// plain V-cycle needs 28 → 53 over the same decks). A band, not a pin.
func TestConvergedIterationBand(t *testing.T) {
	for _, die := range []int{48, 64, 128, 256} {
		sys := gridSystem(t, die)
		h, err := amg.Build(sys.G, amg.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sys.N())
		res, err := solver.PCG(sys.G, x, sys.I, h, solver.DefaultOptions())
		if err != nil || !res.Converged {
			t.Fatalf("%d µm: err=%v converged=%v", die, err, res.Converged)
		}
		if res.Iterations < 22 || res.Iterations > 34 {
			t.Errorf("%d µm: %d iterations, want 22–34", die, res.Iterations)
		}
	}
}
