// Package circuit turns a parsed SPICE power-grid deck into the
// linear system of modified nodal analysis (MNA). It builds the node
// hash table and wire map described in the paper's preprocessing step,
// stamps the conductance matrix G, eliminates the voltage-pad nodes,
// and exposes the SPD "IR-drop system" G·d = I whose unknowns are the
// voltage drops (VDD − v) at every non-pad node.
package circuit

import (
	"errors"
	"fmt"
	"math"

	"irfusion/internal/sparse"
	"irfusion/internal/spice"
)

// Resistor is a wire or via with endpoints given as node indices.
type Resistor struct {
	A, B  int
	Ohms  float64
	IsVia bool // endpoints on different metal layers
}

// Load is a current sink (cell draw) at a node.
type Load struct {
	Node int
	Amps float64
}

// Pad is a voltage-source connection (power pad) at a node.
type Pad struct {
	Node  int
	Volts float64
}

// Network is the in-memory circuit topology: the node list plus the
// element sets, all index-based after hash-consing the node names.
type Network struct {
	Names     map[string]int // node name -> index
	NodeList  []string       // index -> name
	Meta      []spice.Node   // structured name info (layer, x, y)
	HasMeta   []bool         // whether Meta[i] parsed successfully
	Resistors []Resistor
	Loads     []Load
	Pads      []Pad
	// Capacitors feed the transient extension (see transient.go);
	// static analysis ignores them.
	Capacitors []Cap
}

// NumNodes returns the number of distinct non-ground nodes.
func (nw *Network) NumNodes() int { return len(nw.NodeList) }

// Layers returns the sorted set of metal layers present.
func (nw *Network) Layers() []int {
	seen := map[int]bool{}
	for i, ok := range nw.HasMeta {
		if ok {
			seen[nw.Meta[i].Layer] = true
		}
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	// Insertion sort: layer counts are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// FromNetlist builds the network: creates the node hash table,
// classifies elements, and validates PG conventions (current and
// voltage sources must have one terminal at ground; resistors must not
// touch ground; resistances must be positive).
func FromNetlist(nl *spice.Netlist) (*Network, error) {
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
			node, err := gndPartner(e)
			if err != nil {
				return nil, err
			}
			nw.Loads = append(nw.Loads, Load{Node: intern(node), Amps: e.Value})
		case spice.VoltageSource:
			node, err := gndPartner(e)
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

func gndPartner(e spice.Element) (string, error) {
	switch {
	case e.NodeA == spice.Ground && e.NodeB != spice.Ground:
		return e.NodeB, nil
	case e.NodeB == spice.Ground && e.NodeA != spice.Ground:
		return e.NodeA, nil
	default:
		return "", fmt.Errorf("circuit: source %s must connect one node to ground", e.Name)
	}
}

// System is the reduced SPD linear system over non-pad nodes, in the
// IR-drop formulation: G·d = I where d_j is the voltage drop at
// unknown j and I_j the current drawn there. Pads sit at drop 0 and
// have been eliminated into G's diagonal.
type System struct {
	G *sparse.CSR
	I []float64

	// Unknown maps reduced index -> network node index; Reduced maps
	// network node index -> reduced index (-1 for pads).
	Unknown []int
	Reduced []int

	Network *Network
	VDD     float64 // pad voltage (all pads must agree)
}

// ErrFloatingNodes indicates nodes with no resistive path to any pad.
var ErrFloatingNodes = errors.New("circuit: network has nodes with no path to a power pad")

// ErrNoPads indicates the deck has no voltage sources.
var ErrNoPads = errors.New("circuit: network has no power pads")

// Assemble stamps and reduces the MNA system.
func (nw *Network) Assemble() (*System, error) {
	if len(nw.Pads) == 0 {
		return nil, ErrNoPads
	}
	n := nw.NumNodes()
	isPad := make([]bool, n)
	vdd := nw.Pads[0].Volts
	for _, p := range nw.Pads {
		isPad[p.Node] = true
		if math.Abs(p.Volts-vdd) > 1e-12 {
			return nil, fmt.Errorf("circuit: pads at different voltages (%g vs %g) unsupported", p.Volts, vdd)
		}
	}
	reduced := make([]int, n)
	unknown := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if isPad[i] {
			reduced[i] = -1
			continue
		}
		reduced[i] = len(unknown)
		unknown = append(unknown, i)
	}
	m := len(unknown)

	// Connectivity: BFS from pads over resistors; every node must be
	// reached, otherwise the reduced matrix is singular.
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
	for i := 0; i < n; i++ {
		if !visited[i] {
			return nil, fmt.Errorf("%w: e.g. node %s", ErrFloatingNodes, nw.NodeList[i])
		}
	}

	t := sparse.NewTriplet(m, m, 4*len(nw.Resistors))
	for _, r := range nw.Resistors {
		g := 1 / r.Ohms
		ra, rb := reduced[r.A], reduced[r.B]
		if ra >= 0 {
			t.Add(ra, ra, g)
		}
		if rb >= 0 {
			t.Add(rb, rb, g)
		}
		if ra >= 0 && rb >= 0 {
			t.Add(ra, rb, -g)
			t.Add(rb, ra, -g)
		}
		// Pad neighbors: drop at pad is 0, so nothing moves to the RHS;
		// the diagonal entry alone keeps the row strictly dominant.
	}
	rhs := make([]float64, m)
	for _, l := range nw.Loads {
		if ri := reduced[l.Node]; ri >= 0 {
			rhs[ri] += l.Amps
		}
	}
	return &System{
		G:       t.ToCSR(),
		I:       rhs,
		Unknown: unknown,
		Reduced: reduced,
		Network: nw,
		VDD:     vdd,
	}, nil
}

// N returns the number of unknowns.
func (s *System) N() int { return len(s.Unknown) }

// FullDrops expands a reduced solution d to per-network-node drops
// (pads get exactly 0).
func (s *System) FullDrops(d []float64) []float64 {
	out := make([]float64, s.Network.NumNodes())
	for ri, ni := range s.Unknown {
		out[ni] = d[ri]
	}
	return out
}

// TotalLoad returns the summed current draw, a sanity metric.
func (s *System) TotalLoad() float64 {
	t := 0.0
	for _, v := range s.I {
		t += v
	}
	return t
}
