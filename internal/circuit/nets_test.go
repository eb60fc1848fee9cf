package circuit

import (
	"math"
	"strings"
	"testing"

	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

// dualRailDeck: net 1 = VDD at 1.0 V, net 2 = VSS at 0 V. The same
// cell draws 0.1 A from VDD and returns it into VSS.
const dualRailDeck = `* dual rail
V1 n1_m2_0_0 0 1.0
R1 n1_m2_0_0 n1_m1_1_0 2
I1 n1_m1_1_0 0 0.1
V2 n2_m2_9_0 0 0
R2 n2_m2_9_0 n2_m1_8_0 1
I2 n2_m1_8_0 0 0.1
.end
`

func TestSplitNets(t *testing.T) {
	nl, err := spice.ParseString(dualRailDeck)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := splitNets(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 2 || nets[1] == nil || nets[2] == nil {
		t.Fatalf("split produced %d nets, want nets 1 and 2", len(nets))
	}
	if len(nets[1].Elements) != 3 || len(nets[2].Elements) != 3 {
		t.Errorf("element partition wrong: %d + %d", len(nets[1].Elements), len(nets[2].Elements))
	}
	if !strings.Contains(nets[2].Title, "net 2") {
		t.Errorf("net title %q", nets[2].Title)
	}
}

func TestAnalyzeNetsDualRail(t *testing.T) {
	nl, err := spice.ParseString(dualRailDeck)
	if err != nil {
		t.Fatal(err)
	}
	systems, skipped, err := AnalyzeNets(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skipped nets %v", skipped)
	}
	// VDD net: drop = 0.1 A × 2 Ω = 0.2 V. VSS net: bounce = 0.1 × 1.
	solve := func(sys *System) []float64 {
		x := make([]float64, sys.N())
		if _, err := solver.PCG(sys.G, x, sys.I, nil, cgOpts); err != nil {
			t.Fatal(err)
		}
		return x
	}
	vdd := solve(systems[1])
	vss := solve(systems[2])
	if math.Abs(vdd[0]-0.2) > 1e-9 {
		t.Errorf("VDD drop %v, want 0.2", vdd[0])
	}
	if math.Abs(vss[0]-0.1) > 1e-9 {
		t.Errorf("ground bounce %v, want 0.1", vss[0])
	}
}

func TestAnalyzeNetsSkipsPadlessNets(t *testing.T) {
	deck := dualRailDeck[:strings.Index(dualRailDeck, ".end")] +
		"R9 n3_m1_0_5 n3_m1_1_5 1\n.end\n"
	nl, err := spice.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	systems, skipped, err := AnalyzeNets(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 {
		t.Errorf("systems for %d nets, want 2", len(systems))
	}
	if len(skipped) != 1 || skipped[0] != 3 {
		t.Errorf("skipped = %v, want [3]", skipped)
	}
}

func TestSplitNetsRejectsBridges(t *testing.T) {
	nl, err := spice.ParseString("R1 n1_m1_0_0 n2_m1_1_0 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := splitNets(nl); err == nil {
		t.Error("expected bridge error")
	}
}

func TestSplitNetsRejectsUnparseable(t *testing.T) {
	nl, err := spice.ParseString("R1 weird_name n1_m1_1_0 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := splitNets(nl); err == nil {
		t.Error("expected parse error for non-conventional node name")
	}
}

func TestSplitNetsGeneratedDesignSingleNet(t *testing.T) {
	nl, err := spice.ParseString(chainDeck)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := splitNets(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 1 {
		t.Errorf("generated decks are single-net, got %d", len(nets))
	}
}
