package circuit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

// cgOpts is plain (unpreconditioned, non-flexible) CG at the
// converged-solve tolerance: the reference solve of these tests.
var cgOpts = solver.Options{Tol: 1e-10, MaxIter: 1000, Record: true}

func mustNetwork(t *testing.T, deck string) *Network {
	t.Helper()
	nl, err := spice.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := FromNetlist(nl)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// chainDeck: pad --R1-- n1 --R2-- n2 with a load at n2.
const chainDeck = `* chain
V1 n1_m2_0_0 0 1.0
R1 n1_m2_0_0 n1_m1_1_0 2
R2 n1_m1_1_0 n1_m1_2_0 3
I1 n1_m1_2_0 0 0.1
.end
`

func TestChainAnalytic(t *testing.T) {
	nw := mustNetwork(t, chainDeck)
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 2 {
		t.Fatalf("N = %d, want 2 (pad eliminated)", sys.N())
	}
	d := make([]float64, sys.N())
	if _, err := solver.PCG(sys.G, d, sys.I, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	full := sys.FullDrops(d)
	// All 0.1 A flows through both resistors: drops 0.2 V and 0.5 V.
	n1 := nw.Names["n1_m1_1_0"]
	n2 := nw.Names["n1_m1_2_0"]
	pad := nw.Names["n1_m2_0_0"]
	if math.Abs(full[n1]-0.2) > 1e-9 {
		t.Errorf("drop(n1) = %v, want 0.2", full[n1])
	}
	if math.Abs(full[n2]-0.5) > 1e-9 {
		t.Errorf("drop(n2) = %v, want 0.5", full[n2])
	}
	if full[pad] != 0 {
		t.Errorf("drop(pad) = %v, want 0", full[pad])
	}
}

func TestParallelPaths(t *testing.T) {
	// Two equal parallel resistors from pad to a loaded node: drop
	// halves versus the single-resistor case.
	deck := `V1 n1_m2_0_0 0 1.0
R1 n1_m2_0_0 n1_m1_1_0 2
R2 n1_m2_0_0 n1_m1_1_0 2
I1 n1_m1_1_0 0 0.1
.end
`
	nw := mustNetwork(t, deck)
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, sys.N())
	if _, err := solver.PCG(sys.G, d, sys.I, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	got := sys.FullDrops(d)[nw.Names["n1_m1_1_0"]]
	if math.Abs(got-0.1) > 1e-9 { // 0.1 A × 1 Ω (parallel)
		t.Errorf("drop = %v, want 0.1", got)
	}
}

func TestViaDetection(t *testing.T) {
	nw := mustNetwork(t, chainDeck)
	if !nw.Resistors[0].IsVia {
		t.Error("R1 crosses m2->m1 and should be a via")
	}
	if nw.Resistors[1].IsVia {
		t.Error("R2 stays on m1 and is not a via")
	}
}

func TestLayers(t *testing.T) {
	nw := mustNetwork(t, chainDeck)
	ls := nw.Layers()
	if len(ls) != 2 || ls[0] != 1 || ls[1] != 2 {
		t.Errorf("Layers = %v, want [1 2]", ls)
	}
}

func TestNoPadsError(t *testing.T) {
	nw := mustNetwork(t, "R1 n1_m1_0_0 n1_m1_1_0 1\nI1 n1_m1_1_0 0 0.1\n.end\n")
	if _, err := nw.Assemble(); !errors.Is(err, errNoPads) {
		t.Errorf("err = %v, want errNoPads", err)
	}
}

func TestFloatingNodeError(t *testing.T) {
	deck := `V1 n1_m1_0_0 0 1
R1 n1_m1_0_0 n1_m1_1_0 1
R2 n1_m1_5_5 n1_m1_6_5 1
I1 n1_m1_6_5 0 0.1
.end
`
	nw := mustNetwork(t, deck)
	if _, err := nw.Assemble(); !errors.Is(err, errFloatingNodes) {
		t.Errorf("err = %v, want errFloatingNodes", err)
	}
}

func TestMixedPadVoltagesRejected(t *testing.T) {
	deck := `V1 n1_m1_0_0 0 1.0
V2 n1_m1_9_9 0 1.2
R1 n1_m1_0_0 n1_m1_9_9 1
.end
`
	nw := mustNetwork(t, deck)
	if _, err := nw.Assemble(); err == nil {
		t.Error("expected error for mismatched pad voltages")
	}
}

func TestRejectGroundedResistor(t *testing.T) {
	nl, err := spice.ParseString("R1 n1_m1_0_0 0 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetlist(nl); err == nil {
		t.Error("expected error for resistor to ground")
	}
}

func TestRejectNonPositiveResistance(t *testing.T) {
	nl, err := spice.ParseString("R1 n1_m1_0_0 n1_m1_1_0 0\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetlist(nl); err == nil {
		t.Error("expected error for zero resistance")
	}
}

func TestRejectFloatingSource(t *testing.T) {
	nl, err := spice.ParseString("I1 n1_m1_0_0 n1_m1_1_0 0.1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetlist(nl); err == nil {
		t.Error("expected error for node-to-node current source")
	}
}

func TestSystemMatrixSPD(t *testing.T) {
	nw := mustNetwork(t, gridDeck(8, 8, 2))
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.G.IsSymmetric(1e-12) {
		t.Error("reduced conductance matrix must be symmetric")
	}
	// Diagonal dominance with strict dominance on pad-adjacent rows.
	strict := false
	for i := 0; i < sys.G.Rows(); i++ {
		diag, off := 0.0, 0.0
		for p := sys.G.RowPtr[i]; p < sys.G.RowPtr[i+1]; p++ {
			if sys.G.ColInd[p] == i {
				diag = sys.G.Val[p]
			} else {
				off += math.Abs(sys.G.Val[p])
			}
		}
		if diag < off-1e-12 {
			t.Fatalf("row %d not diagonally dominant", i)
		}
		if diag > off+1e-12 {
			strict = true
		}
	}
	if !strict {
		t.Error("no strictly dominant row: pad elimination missing")
	}
}

func TestSuperposition(t *testing.T) {
	// Linearity: doubling all loads doubles all drops.
	nw1 := mustNetwork(t, gridDeck(6, 6, 1))
	sys1, err := nw1.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	d1 := make([]float64, sys1.N())
	if _, err := solver.PCG(sys1.G, d1, sys1.I, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	scaled := append([]float64(nil), sys1.I...)
	for i := range scaled {
		scaled[i] *= 2
	}
	d2 := make([]float64, sys1.N())
	if _, err := solver.PCG(sys1.G, d2, scaled, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if math.Abs(d2[i]-2*d1[i]) > 1e-8*(1+math.Abs(d1[i])) {
			t.Fatalf("superposition violated at %d: %v vs %v", i, d2[i], 2*d1[i])
		}
	}
}

func TestDropsNonNegative(t *testing.T) {
	// Physical invariant: with only sinks (loads), drops are >= 0
	// everywhere (discrete maximum principle for M-matrices).
	nw := mustNetwork(t, gridDeck(10, 10, 3))
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, sys.N())
	if _, err := solver.PCG(sys.G, d, sys.I, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	for i, v := range d {
		if v < -1e-9 {
			t.Fatalf("negative drop %v at unknown %d", v, i)
		}
	}
}

func TestTotalLoad(t *testing.T) {
	nw := mustNetwork(t, chainDeck)
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	load := 0.0
	for _, v := range sys.I {
		load += v
	}
	if math.Abs(load-0.1) > 1e-15 {
		t.Errorf("summed load = %v, want 0.1", load)
	}
}

// gridDeck builds an nx×ny single-layer mesh with loads everywhere and
// nPads pads along the top row.
func gridDeck(nx, ny, nPads int) string {
	rng := rand.New(rand.NewSource(42))
	deck := "* mesh\n"
	name := func(x, y int) string { return fmt.Sprintf("n1_m1_%d_%d", x*1000, y*1000) }
	k := 0
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				deck += fmt.Sprintf("R%d %s %s %g\n", k, name(x, y), name(x+1, y), 0.5+rng.Float64())
				k++
			}
			if y+1 < ny {
				deck += fmt.Sprintf("R%d %s %s %g\n", k, name(x, y), name(x, y+1), 0.5+rng.Float64())
				k++
			}
			deck += fmt.Sprintf("I%d %s 0 %g\n", k, name(x, y), 0.001*rng.Float64())
			k++
		}
	}
	for p := 0; p < nPads; p++ {
		deck += fmt.Sprintf("V%d %s 0 1.05\n", k, name(p*(nx-1)/max(1, nPads-1), 0))
		k++
	}
	return deck + ".end\n"
}

func TestFullDropsShape(t *testing.T) {
	nw := mustNetwork(t, chainDeck)
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	full := sys.FullDrops(make([]float64, sys.N()))
	if len(full) != nw.NumNodes() {
		t.Errorf("FullDrops length %d, want %d", len(full), nw.NumNodes())
	}
}
