package circuit

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"irfusion/internal/spice"
)

// refFromNetlist is FromNetlist as it was before PR 25 folded it into
// Admit's walk, verbatim: the oracle for the network Admit builds.
func refFromNetlist(nl *spice.Netlist) (*Network, error) {
	nw := &Network{Names: make(map[string]int)}
	intern := func(name string) int {
		if idx, ok := nw.Names[name]; ok {
			return idx
		}
		idx := len(nw.NodeList)
		nw.Names[name] = idx
		nw.NodeList = append(nw.NodeList, name)
		meta, err := spice.ParseNode(name)
		nw.Meta = append(nw.Meta, meta)
		nw.HasMeta = append(nw.HasMeta, err == nil)
		return idx
	}
	for _, e := range nl.Elements {
		if detail := refNonFinite(e); detail != "" {
			return nil, errors.New("circuit: " + detail)
		}
		switch e.Type {
		case spice.Resistor:
			if e.NodeA == spice.Ground || e.NodeB == spice.Ground {
				return nil, fmt.Errorf("circuit: resistor %s touches ground", e.Name)
			}
			if e.Value <= 0 {
				return nil, fmt.Errorf("circuit: resistor %s has non-positive value %g", e.Name, e.Value)
			}
			a, b := intern(e.NodeA), intern(e.NodeB)
			if a == b {
				continue // degenerate self-loop contributes nothing
			}
			isVia := nw.HasMeta[a] && nw.HasMeta[b] && nw.Meta[a].Layer != nw.Meta[b].Layer
			nw.Resistors = append(nw.Resistors, Resistor{A: a, B: b, Ohms: e.Value, IsVia: isVia})
		case spice.CurrentSource:
			node, err := refGndPartner(e)
			if err != nil {
				return nil, err
			}
			nw.Loads = append(nw.Loads, Load{Node: intern(node), Amps: e.Value})
		case spice.VoltageSource:
			node, err := refGndPartner(e)
			if err != nil {
				return nil, err
			}
			nw.Pads = append(nw.Pads, Pad{Node: intern(node), Volts: e.Value})
		case spice.Capacitor:
			if e.Value < 0 {
				return nil, fmt.Errorf("circuit: capacitor %s has negative value %g", e.Name, e.Value)
			}
			switch {
			case e.NodeA == spice.Ground && e.NodeB == spice.Ground:
				return nil, fmt.Errorf("circuit: capacitor %s shorted to ground", e.Name)
			case e.NodeB == spice.Ground:
				nw.Capacitors = append(nw.Capacitors, Cap{A: intern(e.NodeA), B: -1, Farads: e.Value})
			case e.NodeA == spice.Ground:
				nw.Capacitors = append(nw.Capacitors, Cap{A: intern(e.NodeB), B: -1, Farads: e.Value})
			default:
				nw.Capacitors = append(nw.Capacitors, Cap{A: intern(e.NodeA), B: intern(e.NodeB), Farads: e.Value})
			}
		}
	}
	return nw, nil
}

// refNonFinite is the one rule both reference walks gained since they
// were copied: an element value that is not finite, or a positive
// resistance whose conductance is not, is a non-finite-value finding.
// It returns the finding's detail, or "" for a finite element.
func refNonFinite(e spice.Element) string {
	switch {
	case math.IsNaN(e.Value) || math.IsInf(e.Value, 0):
		return fmt.Sprintf("%s has non-finite value %g", e.Name, e.Value)
	case e.Type == spice.Resistor && e.Value > 0 && math.IsInf(1/e.Value, 0):
		return fmt.Sprintf("resistor %s value %g has non-finite conductance", e.Name, e.Value)
	}
	return ""
}

func refGndPartner(e spice.Element) (string, error) {
	switch {
	case e.NodeA == spice.Ground && e.NodeB != spice.Ground:
		return e.NodeB, nil
	case e.NodeB == spice.Ground && e.NodeA != spice.Ground:
		return e.NodeA, nil
	default:
		return "", fmt.Errorf("circuit: source %s must connect one node to ground", e.Name)
	}
}

// refValidate is ValidateNetlist as it was before PR 25 (a private
// interner, a [][]int adjacency, a queue BFS), verbatim: the oracle for
// the issues Admit collects.
func refValidate(nl *spice.Netlist) error {
	var issues []DeckIssue
	add := func(code, element, node, detail string) {
		issues = append(issues, DeckIssue{Code: code, Element: element, Node: node, Detail: detail})
	}
	if len(nl.Elements) == 0 {
		add(issueNoElements, "", "", "deck has no elements")
		return &DeckError{Issues: issues}
	}

	// Node interning over the well-formed subset, mirroring
	// FromNetlist but never bailing out.
	names := map[string]int{}
	var nodes []string
	intern := func(name string) int {
		if idx, ok := names[name]; ok {
			return idx
		}
		idx := len(nodes)
		names[name] = idx
		nodes = append(nodes, name)
		return idx
	}
	type edge struct{ a, b int }
	var edges []edge
	var padNodes []int
	var padVolts []float64

	for _, e := range nl.Elements {
		if detail := refNonFinite(e); detail != "" {
			add(IssueNonFinite, e.Name, "", detail)
			continue
		}
		switch e.Type {
		case spice.Resistor:
			bad := false
			if e.NodeA == spice.Ground || e.NodeB == spice.Ground {
				add(IssueGroundResistor, e.Name, "", fmt.Sprintf("resistor %s touches ground", e.Name))
				bad = true
			}
			if e.Value <= 0 {
				add(issueBadResistance, e.Name, "", fmt.Sprintf("resistor %s has non-positive value %g", e.Name, e.Value))
				bad = true
			}
			if bad {
				continue
			}
			a, b := intern(e.NodeA), intern(e.NodeB)
			if a != b {
				edges = append(edges, edge{a, b})
			}
		case spice.CurrentSource:
			if _, err := refGndPartner(e); err != nil {
				add(issueUngroundedSrc, e.Name, "", fmt.Sprintf("current source %s must connect one node to ground", e.Name))
				continue
			}
			node, _ := refGndPartner(e)
			intern(node)
		case spice.VoltageSource:
			node, err := refGndPartner(e)
			if err != nil {
				add(issueUngroundedSrc, e.Name, "", fmt.Sprintf("voltage source %s must connect one node to ground", e.Name))
				continue
			}
			if e.Value <= 0 {
				add(issueZeroPad, e.Name, node, fmt.Sprintf("pad %s at non-positive voltage %g", e.Name, e.Value))
				continue
			}
			padNodes = append(padNodes, intern(node))
			padVolts = append(padVolts, e.Value)
		case spice.Capacitor:
			if e.Value < 0 {
				add(issueNegativeCap, e.Name, "", fmt.Sprintf("capacitor %s has negative value %g", e.Name, e.Value))
			}
			if e.NodeA == spice.Ground && e.NodeB == spice.Ground {
				add(issueShortedCap, e.Name, "", fmt.Sprintf("capacitor %s shorted to ground", e.Name))
			}
		}
	}

	if len(padNodes) == 0 {
		add(issueNoPads, "", "", "deck has no power pads (grounded voltage sources at positive voltage)")
	} else {
		vdd := padVolts[0]
		for i, v := range padVolts[1:] {
			if v != vdd { //irfusion:exact pads must be stamped with bit-identical supply voltages; any difference is a netlist authoring error
				add(issuePadMismatch, "", nodes[padNodes[i+1]],
					fmt.Sprintf("pads at different voltages (%g vs %g)", v, vdd))
				break
			}
		}
		// Connectivity: BFS from the pads over well-formed resistors.
		// Unreached nodes make the reduced MNA system singular — the
		// failure that otherwise surfaces mid-solve as ErrIndefinite.
		adj := make([][]int, len(nodes))
		for _, ed := range edges {
			adj[ed.a] = append(adj[ed.a], ed.b)
			adj[ed.b] = append(adj[ed.b], ed.a)
		}
		visited := make([]bool, len(nodes))
		queue := make([]int, 0, len(nodes))
		for _, p := range padNodes {
			if !visited[p] {
				visited[p] = true
				queue = append(queue, p)
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, o := range adj[v] {
				if !visited[o] {
					visited[o] = true
					queue = append(queue, o)
				}
			}
		}
		floating := 0
		for i := range nodes {
			if visited[i] {
				continue
			}
			floating++
			if floating <= maxFloatingReported {
				add(IssueFloatingNode, "", nodes[i],
					fmt.Sprintf("node %s has no resistive path to any pad", nodes[i]))
			}
		}
		if floating > maxFloatingReported {
			add(IssueFloatingNode, "", "",
				fmt.Sprintf("%d further nodes have no resistive path to any pad", floating-maxFloatingReported))
		}
	}

	if len(issues) == 0 {
		return nil
	}
	return &DeckError{Issues: issues}
}

func capc(name, a, b string, farads float64) spice.Element {
	return spice.Element{Type: spice.Capacitor, Name: name, NodeA: a, NodeB: b, Value: farads}
}

// lintDecks is every deck validate_test.go builds, by name, plus
// capacitor constructions and the non-finite cards. capOnly marks the
// decks holding a node only a capacitor names — the one intended
// difference from refValidate, which never interned capacitor
// terminals.
func lintDecks() []struct {
	name    string
	nl      *spice.Netlist
	capOnly bool
} {
	with := func(extra ...spice.Element) *spice.Netlist {
		nl := cleanDeck()
		nl.Elements = append(nl.Elements, extra...)
		return nl
	}
	var island []spice.Element
	for i := 0; i < 8; i++ {
		island = append(island, res(fmt.Sprintf("rf%d", i), fmt.Sprintf("f%d", i), fmt.Sprintf("f%d", i+1), 1))
	}
	decks := []struct {
		name    string
		nl      *spice.Netlist
		capOnly bool
	}{
		{"clean", cleanDeck(), false},
		{"empty", &spice.Netlist{}, false},
		{"all-issues", &spice.Netlist{Elements: []spice.Element{
			vsrc("v1", "a", 1.1),
			res("rneg", "a", "b", -5),
			res("rgnd", "a", spice.Ground, 1),
			{Type: spice.VoltageSource, Name: "vbad", NodeA: "x", NodeB: "y", Value: 1.1},
			vsrc("vzero", "c", 0),
			res("r1", "a", "b", 2),
			res("rfloat", "p", "q", 3),
		}}, false},
		{"no-pads", &spice.Netlist{Elements: []spice.Element{res("r1", "a", "b", 2), isrc("i1", "b", 0.01)}}, false},
		{"pad-mismatch", with(vsrc("v2", "b", 0.9)), false},
		{"floating-island", with(island...), false},
		{"bad-resistor-both", with(res("r0", spice.Ground, "b", 0)), false},
		{"ungrounded-load", with(spice.Element{Type: spice.CurrentSource, Name: "i2", NodeA: "a", NodeB: "b", Value: 1}), false},
		{"load-both-grounded", with(isrc("i2", spice.Ground, 1)), false},
		{"self-loop", with(res("rs", "b", "b", 1)), false},
		{"floating-load", with(isrc("i2", "z", 1)), false},
		{"zero-pad-only", &spice.Netlist{Elements: []spice.Element{vsrc("v1", "a", 0), res("r1", "a", "b", 1)}}, false},
		{"negative-cap", with(capc("c1", "a", "b", -1)), false},
		{"shorted-cap", with(capc("c1", spice.Ground, spice.Ground, 1)), false},
		{"negative-shorted-cap", with(capc("c1", spice.Ground, spice.Ground, -1)), false},
		{"negative-cap-on-a-new-node", with(capc("c1", "b", "z", -1)), false},
		{"decap-between-connected", with(capc("c1", "a", "b", 1e-12)), false},
		{"decap-grounded", with(capc("c1", "b", spice.Ground, 1e-12), capc("c2", spice.Ground, "a", 1e-12)), false},
		{"decap-first", &spice.Netlist{Elements: append([]spice.Element{capc("c1", "b", "a", 1e-12)}, cleanDeck().Elements...)}, false},
		{"cap-only-node", with(capc("c1", "b", "z", 1e-12)), true},
		{"cap-only-node-grounded", with(capc("c1", spice.Ground, "z", 1e-12)), true},
		{"cap-only-pair", with(capc("c1", "y", "z", 1e-12)), true},
		{"non-finite-amid-issues", with(res("rgnd", "a", spice.Ground, math.Inf(1)), res("rneg", "a", "b", -1)), false},
	}
	for _, c := range nonFiniteCards() {
		decks = append(decks, struct {
			name    string
			nl      *spice.Netlist
			capOnly bool
		}{"non-finite " + c.name, with(c.card), false})
	}
	return decks
}

// nonFiniteCards are cards whose value, or whose conductance, is not
// finite: each one makes the clean deck a non-finite-value finding.
// ParseValue yields the first three from "1e308k" and "1e-300f".
func nonFiniteCards() []struct {
	name string
	card spice.Element
} {
	inf := math.Inf(1)
	return []struct {
		name string
		card spice.Element
	}{
		{"load +Inf", isrc("i2", "b", inf)},
		{"resistor 1e-315", res("r2", "a", "b", 1e-315)},
		{"resistor +Inf to an island", res("r2", "b", "z", inf)},
		{"resistor NaN", res("r2", "a", "b", math.NaN())},
		{"pad -Inf", vsrc("v2", "a", -inf)},
		{"capacitor +Inf", capc("c1", "a", "b", inf)},
	}
}

// TestAdmitRejectsNonFiniteValues: a value that overflowed, or a
// resistance whose conductance did, is one non-finite-value finding
// naming the card, and the card is left out of the network — so the
// island an infinite resistor would have joined to the grid is not
// reported either. FromNetlist fails on it.
func TestAdmitRejectsNonFiniteValues(t *testing.T) {
	for _, c := range nonFiniteCards() {
		nl := cleanDeck()
		nl.Elements = append(nl.Elements, c.card)
		_, err := Admit(nl)
		var de *DeckError
		if !errors.As(err, &de) || len(de.Issues) != 1 || de.Issues[0].Code != IssueNonFinite || de.Issues[0].Element != c.card.Name {
			t.Errorf("%s: Admit: %v, want one %s naming %s", c.name, err, IssueNonFinite, c.card.Name)
		}
		if _, err := FromNetlist(nl); err == nil {
			t.Errorf("%s: FromNetlist accepted the deck", c.name)
		}
	}
}

// sameNetwork compares the fields a Network is made of, treating an
// empty slice and a nil one alike (Admit presizes what the reference
// leaves nil).
func sameNetwork(t *testing.T, got, want *Network) {
	t.Helper()
	eq := func(field string, g, w any) {
		if reflect.ValueOf(g).Len() == 0 && reflect.ValueOf(w).Len() == 0 {
			return
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s differs:\n got %v\nwant %v", field, g, w)
		}
	}
	eq("Names", got.Names, want.Names)
	eq("NodeList", got.NodeList, want.NodeList)
	eq("Meta", got.Meta, want.Meta)
	eq("HasMeta", got.HasMeta, want.HasMeta)
	eq("Resistors", got.Resistors, want.Resistors)
	eq("Loads", got.Loads, want.Loads)
	eq("Pads", got.Pads, want.Pads)
	eq("Capacitors", got.Capacitors, want.Capacitors)
}

// DiffAdmit holds Admit to the code it replaced on one deck: the issues
// refValidate collects, order included, and — for a clean deck — the
// network refFromNetlist builds, node order included; FromNetlist must
// still fail exactly where the reference does. Exported for the
// external test package, which runs it on pgen decks.
func DiffAdmit(t *testing.T, nl *spice.Netlist) {
	t.Helper()
	nw, err := Admit(nl)
	wantErr := refValidate(nl)
	if !reflect.DeepEqual(err, wantErr) {
		t.Errorf("Admit: %#v\nreference: %#v", err, wantErr)
	}
	if (nw == nil) != (err != nil) {
		t.Errorf("Admit returned network %v with error %v", nw != nil, err)
	}
	ref, refErr := refFromNetlist(nl)
	ff, ffErr := FromNetlist(nl)
	if (ffErr == nil) != (refErr == nil) {
		t.Fatalf("FromNetlist: %v, reference: %v", ffErr, refErr)
	}
	if refErr == nil {
		sameNetwork(t, ff, ref)
		if nw != nil {
			sameNetwork(t, nw, ref)
		}
	}
}

func TestAdmitDifferential(t *testing.T) {
	for _, row := range lintDecks() {
		t.Run(row.name, func(t *testing.T) {
			if !row.capOnly {
				DiffAdmit(t, row.nl)
				return
			}
			// The intended difference: the reference passes the deck and
			// Assemble then fails on the node only the capacitor names;
			// Admit reports that node.
			if err := refValidate(row.nl); err != nil {
				t.Fatalf("reference flags the deck: %v", err)
			}
			ref, _ := refFromNetlist(row.nl)
			if _, err := ref.Assemble(); !errors.Is(err, errFloatingNodes) {
				t.Fatalf("reference network assembles: %v", err)
			}
			_, err := Admit(row.nl)
			var de *DeckError
			if !errors.As(err, &de) || de.Summary() != IssueFloatingNode {
				t.Fatalf("Admit: %v, want only %s", err, IssueFloatingNode)
			}
			for _, is := range de.Issues {
				if is.Node != "z" && is.Node != "y" {
					t.Errorf("floating finding names %q", is.Node)
				}
			}
		})
	}
}

// TestFromNetlistMessages pins the fail-fast face: the first malformed
// element is the error, "circuit: " + the finding's detail.
func TestFromNetlistMessages(t *testing.T) {
	for _, tc := range []struct {
		e    spice.Element
		want string
	}{
		{res("r1", "a", spice.Ground, 0), "circuit: resistor r1 touches ground"},
		{res("r1", "a", "b", 0), "circuit: resistor r1 has non-positive value 0"},
		{spice.Element{Type: spice.CurrentSource, Name: "i1", NodeA: "a", NodeB: "b"}, "circuit: current source i1 must connect one node to ground"},
		{spice.Element{Type: spice.VoltageSource, Name: "v2", NodeA: "a", NodeB: "b"}, "circuit: voltage source v2 must connect one node to ground"},
		{capc("c1", "a", "b", -2), "circuit: capacitor c1 has negative value -2"},
		{capc("c1", spice.Ground, spice.Ground, 1), "circuit: capacitor c1 shorted to ground"},
		{isrc("i1", "a", math.Inf(1)), "circuit: i1 has non-finite value +Inf"},
		{res("r1", "a", "b", 1e-315), "circuit: resistor r1 value 1e-315 has non-finite conductance"},
	} {
		// The bad card first, then a second bad one that must not be reported.
		nl := &spice.Netlist{Elements: []spice.Element{vsrc("v1", "a", 1.1), tc.e, res("r9", "a", "b", -1)}}
		if _, err := FromNetlist(nl); err == nil || err.Error() != tc.want {
			t.Errorf("FromNetlist: %v, want %s", err, tc.want)
		}
	}
	// A pad at or below 0 V is lint's finding, not FromNetlist's.
	if nw, err := FromNetlist(&spice.Netlist{Elements: []spice.Element{vsrc("v1", "a", 0)}}); err != nil || len(nw.Pads) != 1 {
		t.Errorf("FromNetlist on a 0 V pad: %v", err)
	}
}

// refReachable is the queue BFS over a [][]int adjacency that Assemble
// ran before PR 25 (ValidateNetlist had its twin).
func refReachable(nw *Network) []bool {
	n := nw.NumNodes()
	adj := make([][]int, n)
	for ri, r := range nw.Resistors {
		adj[r.A] = append(adj[r.A], ri)
		adj[r.B] = append(adj[r.B], ri)
	}
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	for _, p := range nw.Pads {
		if !visited[p.Node] {
			visited[p.Node] = true
			queue = append(queue, p.Node)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ri := range adj[v] {
			r := nw.Resistors[ri]
			o := r.A + r.B - v
			if !visited[o] {
				visited[o] = true
				queue = append(queue, o)
			}
		}
	}
	return visited
}

// TestReachableMatchesQueueBFS: a grid fed by two pads, a detached
// island, a pad-less component hanging off a load, an isolated pad and a
// node with no resistor at all.
func TestReachableMatchesQueueBFS(t *testing.T) {
	var els []spice.Element
	node := func(p string, x, y int) string { return fmt.Sprintf("%s_%d_%d", p, x, y) }
	for _, p := range []string{"g", "island"} {
		for y := 0; y < 5; y++ {
			for x := 0; x < 6; x++ {
				if x+1 < 6 {
					els = append(els, res("rx", node(p, x, y), node(p, x+1, y), 1))
				}
				if y+1 < 5 {
					els = append(els, res("ry", node(p, x, y), node(p, x, y+1), 1))
				}
			}
		}
	}
	els = append(els, vsrc("v1", node("g", 0, 0), 1), vsrc("v2", node("g", 5, 4), 1), vsrc("v3", "lonely", 1),
		isrc("i1", "p0", 1), res("rp", "p0", "p1", 1), res("rq", "p1", "p2", 1), isrc("i2", "bare", 1),
		res("dup", node("g", 0, 0), node("g", 1, 0), 2)) // a parallel strap
	nw, err := FromNetlist(&spice.Netlist{Elements: els})
	if err != nil {
		t.Fatal(err)
	}
	got, want := nw.reachable(), refReachable(nw)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reachable() differs from the queue BFS:\n got %v\nwant %v", got, want)
	}
	reached := 0
	for _, ok := range got {
		if ok {
			reached++
		}
	}
	if reached != 31 || len(got) != 65 {
		t.Fatalf("%d of %d nodes reached, want 31 of 65", reached, len(got))
	}
}
