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

	"irfusion/internal/obs"
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

// cNetworks counts network builds (one name interning each): a request
// that moves it twice has walked its deck twice.
var cNetworks = obs.GlobalCounter("circuit.networks")

// FromNetlist builds the network: creates the node hash table,
// classifies elements, and validates PG conventions (current and
// voltage sources must have one terminal at ground; resistors must not
// touch ground; resistances must be positive). It is the fail-fast face
// of Admit's walk: the first malformed element is the error, and pads
// and connectivity are left to Assemble.
func FromNetlist(nl *spice.Netlist) (*Network, error) {
	nw, issues := build(nl, false)
	if len(issues) > 0 {
		return nil, errors.New("circuit: " + issues[0].Detail)
	}
	return nw, nil
}

// intern returns the index of a node name, adding it to the node table
// (and decoding its structured name, once) the first time it is seen.
func (nw *Network) intern(name string) int {
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

func gndPartner(e *spice.Element) (string, bool) {
	switch {
	case e.NodeA == spice.Ground && e.NodeB != spice.Ground:
		return e.NodeB, true
	case e.NodeB == spice.Ground && e.NodeA != spice.Ground:
		return e.NodeA, true
	default:
		return "", false
	}
}

// reachable marks every node with a resistive path to a pad:
// breadth-first from the pads over a flat adjacency (neighbours of node
// v are adj[off[v]:off[v+1]]). A node left unmarked makes the reduced
// matrix singular.
func (nw *Network) reachable() []bool {
	n := nw.NumNodes()
	off := make([]int, n+2)
	for _, r := range nw.Resistors {
		off[r.A+2]++
		off[r.B+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	adj := make([]int, 2*len(nw.Resistors))
	for _, r := range nw.Resistors { // off[v+1] walks from v's start to its end
		adj[off[r.A+1]], adj[off[r.B+1]] = r.B, r.A
		off[r.A+1]++
		off[r.B+1]++
	}
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for _, p := range nw.Pads {
		if !seen[p.Node] {
			seen[p.Node] = true
			queue = append(queue, p.Node)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, o := range adj[off[v]:off[v+1]] {
			if !seen[o] {
				seen[o] = true
				queue = append(queue, o)
			}
		}
	}
	return seen
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

// errFloatingNodes indicates nodes with no resistive path to any pad.
var errFloatingNodes = errors.New("circuit: network has nodes with no path to a power pad")

// errNoPads indicates the deck has no voltage sources.
var errNoPads = errors.New("circuit: network has no power pads")

// Assemble stamps and reduces the MNA system.
func (nw *Network) Assemble() (*System, error) {
	if len(nw.Pads) == 0 {
		return nil, errNoPads
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

	for i, ok := range nw.reachable() {
		if !ok {
			return nil, fmt.Errorf("%w: e.g. node %s", errFloatingNodes, nw.NodeList[i])
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
