package circuit

import (
	"errors"
	"fmt"
	"testing"

	"irfusion/internal/spice"
)

func res(name, a, b string, ohms float64) spice.Element {
	return spice.Element{Type: spice.Resistor, Name: name, NodeA: a, NodeB: b, Value: ohms}
}

func vsrc(name, node string, volts float64) spice.Element {
	return spice.Element{Type: spice.VoltageSource, Name: name, NodeA: node, NodeB: spice.Ground, Value: volts}
}

func isrc(name, node string, amps float64) spice.Element {
	return spice.Element{Type: spice.CurrentSource, Name: name, NodeA: node, NodeB: spice.Ground, Value: amps}
}

// cleanDeck is a minimal valid deck: pad — strap — load.
func cleanDeck() *spice.Netlist {
	return &spice.Netlist{Elements: []spice.Element{
		vsrc("v1", "a", 1.1),
		res("r1", "a", "b", 2),
		isrc("i1", "b", 0.01),
	}}
}

func TestValidateNetlistClean(t *testing.T) {
	if err := ValidateNetlist(cleanDeck()); err != nil {
		t.Fatalf("clean deck flagged: %v", err)
	}
}

func TestValidateNetlistCollectsAllIssues(t *testing.T) {
	nl := &spice.Netlist{Elements: []spice.Element{
		vsrc("v1", "a", 1.1),
		res("rneg", "a", "b", -5),         // non-positive resistance
		res("rgnd", "a", spice.Ground, 1), // touches ground
		{Type: spice.VoltageSource, Name: "vbad", NodeA: "x", NodeB: "y", Value: 1.1}, // ungrounded
		vsrc("vzero", "c", 0),      // zero pad voltage
		res("r1", "a", "b", 2),     // keeps b reachable
		res("rfloat", "p", "q", 3), // island: p,q floating
	}}
	err := ValidateNetlist(nl)
	if err == nil {
		t.Fatal("expected issues")
	}
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("error is %T, want *DeckError", err)
	}
	want := map[string]bool{
		issueBadResistance:  true,
		IssueGroundResistor: true,
		issueUngroundedSrc:  true,
		issueZeroPad:        true,
		IssueFloatingNode:   true,
	}
	got := map[string]bool{}
	for _, c := range de.Codes() {
		got[c] = true
	}
	for c := range want {
		if !got[c] {
			t.Errorf("missing issue %s in %v", c, de.Codes())
		}
	}
	// Two floating nodes → two findings, each naming its node.
	floats := 0
	for _, is := range de.Issues {
		if is.Code == IssueFloatingNode {
			floats++
			if is.Node != "p" && is.Node != "q" {
				t.Errorf("floating issue names node %q, want p or q", is.Node)
			}
		}
	}
	if floats != 2 {
		t.Errorf("%d floating findings, want 2", floats)
	}
	if de.Error() == "" || de.Summary() == "" {
		t.Error("empty rendering")
	}
}

func TestValidateNetlistNoPads(t *testing.T) {
	nl := &spice.Netlist{Elements: []spice.Element{
		res("r1", "a", "b", 2),
		isrc("i1", "b", 0.01),
	}}
	err := ValidateNetlist(nl)
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("got %v", err)
	}
	if cs := de.Codes(); len(cs) != 1 || cs[0] != issueNoPads {
		t.Fatalf("codes %v, want [%s]", cs, issueNoPads)
	}
}

func TestValidateNetlistPadMismatch(t *testing.T) {
	nl := cleanDeck()
	nl.Elements = append(nl.Elements, vsrc("v2", "b", 0.9))
	err := ValidateNetlist(nl)
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("got %v", err)
	}
	if cs := de.Codes(); len(cs) != 1 || cs[0] != issuePadMismatch {
		t.Fatalf("codes %v, want [%s]", cs, issuePadMismatch)
	}
}

func TestValidateNetlistEmptyDeck(t *testing.T) {
	err := ValidateNetlist(&spice.Netlist{})
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("got %v", err)
	}
	if cs := de.Codes(); len(cs) != 1 || cs[0] != issueNoElements {
		t.Fatalf("codes %v, want [%s]", cs, issueNoElements)
	}
}

func TestValidateNetlistFloatingCap(t *testing.T) {
	nl := cleanDeck()
	// A chain of 8 nodes detached from the pad: findings are capped at
	// maxFloatingReported plus one summary line.
	for i := 0; i < 8; i++ {
		nl.Elements = append(nl.Elements, res(fmt.Sprintf("rf%d", i), fmt.Sprintf("f%d", i), fmt.Sprintf("f%d", i+1), 1))
	}
	err := ValidateNetlist(nl)
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("got %v", err)
	}
	if len(de.Issues) != maxFloatingReported+1 {
		t.Fatalf("%d findings, want %d", len(de.Issues), maxFloatingReported+1)
	}
	last := de.Issues[len(de.Issues)-1]
	if last.Node != "" {
		t.Fatalf("summary finding should not name a node, got %q", last.Node)
	}
}

// TestValidateAgreesWithAssemble: any deck the validator passes must
// assemble and reduce without error — the validator is a strict
// superset of the assembly-time checks for these constructions — and
// one whose only fault is a node nothing but a capacitor names (which
// Assemble cannot reach from a pad) must not pass.
func TestValidateAgreesWithAssemble(t *testing.T) {
	capTo := func(a, b string) *spice.Netlist {
		nl := cleanDeck()
		nl.Elements = append(nl.Elements, spice.Element{Type: spice.Capacitor, Name: "c1", NodeA: a, NodeB: b, Value: 1e-12})
		return nl
	}
	for _, tc := range []struct {
		name   string
		nl     *spice.Netlist
		floats bool // Assemble must fail on node z, and so must the validator
	}{
		{"clean", cleanDeck(), false},
		{"decap between connected nodes", capTo("a", "b"), false},
		{"decap to ground", capTo("b", spice.Ground), false},
		{"decap to a node nothing else names", capTo("b", "z"), true},
		{"grounded decap on such a node", capTo(spice.Ground, "z"), true},
	} {
		nw, err := FromNetlist(tc.nl)
		if err != nil {
			t.Fatalf("%s: FromNetlist failed: %v", tc.name, err)
		}
		if _, err := nw.Assemble(); tc.floats != errors.Is(err, errFloatingNodes) {
			t.Errorf("%s: Assemble: %v", tc.name, err)
		}
		err = ValidateNetlist(tc.nl)
		var de *DeckError
		if !tc.floats && err != nil {
			t.Errorf("%s: validator flags a deck that assembles: %v", tc.name, err)
		} else if tc.floats && (!errors.As(err, &de) || de.Summary() != IssueFloatingNode || de.Issues[0].Node != "z") {
			t.Errorf("%s: validator says %v, want one %s naming z", tc.name, err, IssueFloatingNode)
		}
	}
}
