package circuit

import (
	"fmt"
	"sort"

	"irfusion/internal/spice"
)

// splitNets partitions a deck by power net (the n<id> prefix of the
// node naming convention), enabling dual-rail analysis: the VDD net
// solves for IR drop, the VSS/ground net for ground bounce — each an
// independent SPD system. Cards bridging two nets are rejected;
// ground-terminated cards join their node's net.
func splitNets(nl *spice.Netlist) (map[int]*spice.Netlist, error) {
	nets := map[int]*spice.Netlist{}
	get := func(id int) *spice.Netlist {
		if n, ok := nets[id]; ok {
			return n
		}
		n := &spice.Netlist{Title: fmt.Sprintf("%s (net %d)", nl.Title, id)}
		nets[id] = n
		return n
	}
	netOf := func(name string) (int, bool, error) {
		if name == spice.Ground {
			return 0, true, nil
		}
		node, err := spice.ParseNode(name)
		if err != nil {
			return 0, false, fmt.Errorf("circuit: cannot determine net of node %q: %w", name, err)
		}
		return node.Net, false, nil
	}
	for _, e := range nl.Elements {
		na, gndA, err := netOf(e.NodeA)
		if err != nil {
			return nil, err
		}
		nb, gndB, err := netOf(e.NodeB)
		if err != nil {
			return nil, err
		}
		switch {
		case gndA && gndB:
			return nil, fmt.Errorf("circuit: element %s connects ground to ground", e.Name)
		case gndA:
			get(nb).Elements = append(get(nb).Elements, e)
		case gndB:
			get(na).Elements = append(get(na).Elements, e)
		case na == nb:
			get(na).Elements = append(get(na).Elements, e)
		default:
			return nil, fmt.Errorf("circuit: element %s bridges nets %d and %d", e.Name, na, nb)
		}
	}
	return nets, nil
}

// AnalyzeNets assembles every net of a deck independently and returns
// the per-net systems, keyed by net id. Nets without pads (no V
// cards) are skipped with their ids reported in the second return —
// signal or clock nets sometimes ride along in PG decks.
func AnalyzeNets(nl *spice.Netlist) (map[int]*System, []int, error) {
	nets, err := splitNets(nl)
	if err != nil {
		return nil, nil, err
	}
	systems := map[int]*System{}
	var skipped []int
	for id, sub := range nets {
		nw, err := FromNetlist(sub)
		if err != nil {
			return nil, nil, fmt.Errorf("circuit: net %d: %w", id, err)
		}
		if len(nw.Pads) == 0 {
			skipped = append(skipped, id)
			continue
		}
		sys, err := nw.Assemble()
		if err != nil {
			return nil, nil, fmt.Errorf("circuit: net %d: %w", id, err)
		}
		systems[id] = sys
	}
	sort.Ints(skipped)
	return systems, skipped, nil
}
