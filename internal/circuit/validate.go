package circuit

import (
	"fmt"
	"math"
	"strings"

	"irfusion/internal/spice"
)

// Deck validation: a pre-solve linter riding the walk that builds the
// network. FromNetlist fails fast on the first malformed element, and
// deeper pathologies — no pads, floating nodes — only used to surface
// mid-solve as solver.ErrIndefinite. Admit instead collects *every*
// problem up front into a structured DeckError, which the serving layer
// maps to a 400 with a machine-readable issue list instead of a cryptic
// 500, and hands a clean deck's network on so nobody builds it twice.

// Deck-issue codes. Stable strings — clients and tests match on them.
const (
	issueNoPads         = "no-pads"
	issueZeroPad        = "zero-pad-voltage"
	issuePadMismatch    = "pad-voltage-mismatch"
	issueBadResistance  = "nonpositive-resistance"
	IssueGroundResistor = "resistor-touches-ground"
	issueUngroundedSrc  = "ungrounded-source"
	issueNegativeCap    = "negative-capacitance"
	issueShortedCap     = "capacitor-shorted"
	IssueFloatingNode   = "floating-node"
	issueNoElements     = "empty-deck"
	IssueNonFinite      = "non-finite-value"
	IssueDropOverflow   = "drop-overflow"
)

// maxDropBound is the admitted bound on Σ|I|·ΣR, which bounds every
// node's IR drop: each load's current reaches a pad through at most
// every resistor. PCG's inner products square the drop, so a drop near
// √MaxFloat64 ≈ 1.3e154 overflows the solve.
const maxDropBound = 1e150

// DeckIssue is one validation finding.
type DeckIssue struct {
	Code    string `json:"code"`
	Element string `json:"element,omitempty"` // offending element name
	Node    string `json:"node,omitempty"`    // offending node name
	Detail  string `json:"detail"`
}

// DeckError aggregates every issue found in a deck. It implements
// error; errors.As extracts it for structured rendering.
type DeckError struct {
	Issues []DeckIssue `json:"issues"`
}

func (e *DeckError) Error() string {
	if len(e.Issues) == 0 {
		return "circuit: invalid deck"
	}
	parts := make([]string, 0, len(e.Issues))
	for _, is := range e.Issues {
		parts = append(parts, is.Code+": "+is.Detail)
	}
	n := ""
	if len(parts) > 1 {
		n = fmt.Sprintf(" (and %d more)", len(parts)-1)
	}
	return "circuit: invalid deck: " + parts[0] + n
}

// maxFloatingReported caps the floating-node findings per deck so a
// detached region of thousands of nodes doesn't flood the response.
const maxFloatingReported = 5

// Admit lints a parsed deck and builds its network in one element walk,
// before any matrix is stamped, collecting every finding: malformed
// elements (non-finite values, ground-touching or non-positive
// resistors, ungrounded sources, bad capacitors), pad problems (none,
// non-positive voltage, disagreeing voltages), connectivity (nodes
// with no resistive path to any pad, i.e. a singular reduced system —
// over the nodes Assemble will see, capacitor terminals included), and
// a drop too large to solve (Σ|I|·ΣR not below maxDropBound). A
// clean deck yields the network FromNetlist would build; otherwise the
// error is a *DeckError listing all issues.
func Admit(nl *spice.Netlist) (*Network, error) {
	nw, issues := build(nl, true)
	if len(issues) > 0 {
		return nil, &DeckError{Issues: issues}
	}
	return nw, nil
}

// ValidateNetlist is Admit for callers that only want the verdict.
func ValidateNetlist(nl *spice.Netlist) error {
	_, err := Admit(nl)
	return err
}

// build is the one element walk. With lint set it skips every malformed
// element and keeps going, then checks pads and connectivity; without,
// it stops at the first finding and accepts any pad voltage.
func build(nl *spice.Netlist, lint bool) (*Network, []DeckIssue) {
	var issues []DeckIssue
	add := func(code, element, node, format string, args ...any) {
		issues = append(issues, DeckIssue{Code: code, Element: element, Node: node, Detail: fmt.Sprintf(format, args...)})
	}
	if lint && len(nl.Elements) == 0 {
		add(issueNoElements, "", "", "deck has no elements")
		return nil, issues
	}
	cNetworks.Inc()
	nr, ni, nv := nl.Counts()
	nodes := len(nl.Elements)/2 + len(nl.Elements)/8 // a hint: a grid deck has ~0.56 nodes per card
	nw := &Network{
		Names:     make(map[string]int, nodes),
		NodeList:  make([]string, 0, nodes),
		Meta:      make([]spice.Node, 0, nodes),
		HasMeta:   make([]bool, 0, nodes),
		Resistors: make([]Resistor, 0, nr),
		Loads:     make([]Load, 0, ni),
		Pads:      make([]Pad, 0, nv),
	}
	var sumI, sumR float64 // Σ|I| and ΣR over the well-formed cards
	for i := range nl.Elements {
		if len(issues) > 0 && !lint {
			return nil, issues
		}
		e, found := &nl.Elements[i], len(issues)
		// A value that overflowed (ParseValue("1e308k") is +Inf), or a
		// resistance whose conductance 1/R — what Assemble stamps — did,
		// would reach the solver as Inf or NaN, or (R = +Inf, 1/R = 0) as
		// an edge the connectivity walk counts and the matrix does not.
		if !finite(e.Value) {
			add(IssueNonFinite, e.Name, "", "%s has non-finite value %g", e.Name, e.Value)
			continue
		}
		if e.Type == spice.Resistor && e.Value > 0 && !finite(1/e.Value) {
			add(IssueNonFinite, e.Name, "", "resistor %s value %g has non-finite conductance", e.Name, e.Value)
			continue
		}
		switch e.Type {
		case spice.Resistor:
			if e.NodeA == spice.Ground || e.NodeB == spice.Ground {
				add(IssueGroundResistor, e.Name, "", "resistor %s touches ground", e.Name)
			}
			if e.Value <= 0 {
				add(issueBadResistance, e.Name, "", "resistor %s has non-positive value %g", e.Name, e.Value)
			}
			if len(issues) > found {
				continue
			}
			sumR += e.Value
			a, b := nw.intern(e.NodeA), nw.intern(e.NodeB)
			if a == b {
				continue // degenerate self-loop contributes nothing
			}
			isVia := nw.HasMeta[a] && nw.HasMeta[b] && nw.Meta[a].Layer != nw.Meta[b].Layer
			nw.Resistors = append(nw.Resistors, Resistor{A: a, B: b, Ohms: e.Value, IsVia: isVia})
		case spice.CurrentSource:
			if node, ok := gndPartner(e); !ok {
				add(issueUngroundedSrc, e.Name, "", "current source %s must connect one node to ground", e.Name)
			} else {
				nw.Loads = append(nw.Loads, Load{Node: nw.intern(node), Amps: e.Value})
				sumI += math.Abs(e.Value)
			}
		case spice.VoltageSource:
			if node, ok := gndPartner(e); !ok {
				add(issueUngroundedSrc, e.Name, "", "voltage source %s must connect one node to ground", e.Name)
			} else if lint && e.Value <= 0 {
				add(issueZeroPad, e.Name, node, "pad %s at non-positive voltage %g", e.Name, e.Value)
			} else {
				nw.Pads = append(nw.Pads, Pad{Node: nw.intern(node), Volts: e.Value})
			}
		case spice.Capacitor:
			if e.Value < 0 {
				add(issueNegativeCap, e.Name, "", "capacitor %s has negative value %g", e.Name, e.Value)
			}
			if e.NodeA == spice.Ground && e.NodeB == spice.Ground {
				add(issueShortedCap, e.Name, "", "capacitor %s shorted to ground", e.Name)
			}
			if len(issues) > found {
				continue
			}
			c := Cap{B: -1, Farads: e.Value}
			switch {
			case e.NodeB == spice.Ground:
				c.A = nw.intern(e.NodeA)
			case e.NodeA == spice.Ground:
				c.A = nw.intern(e.NodeB)
			default:
				c.A, c.B = nw.intern(e.NodeA), nw.intern(e.NodeB)
			}
			nw.Capacitors = append(nw.Capacitors, c)
		}
	}
	if !lint {
		return nw, issues
	}
	if len(nw.Pads) == 0 {
		add(issueNoPads, "", "", "deck has no power pads (grounded voltage sources at positive voltage)")
		return nw, issues
	}
	vdd := nw.Pads[0].Volts
	for _, p := range nw.Pads[1:] {
		if p.Volts != vdd { //irfusion:exact pads must be stamped with bit-identical supply voltages; any difference is a netlist authoring error
			add(issuePadMismatch, "", nw.NodeList[p.Node], "pads at different voltages (%g vs %g)", p.Volts, vdd)
			break
		}
	}
	// Connectivity over the well-formed elements. Unreached nodes make
	// the reduced MNA system singular — the failure that otherwise
	// surfaces mid-solve as ErrIndefinite.
	floating := 0
	for i, ok := range nw.reachable() {
		if ok {
			continue
		}
		if floating++; floating <= maxFloatingReported {
			add(IssueFloatingNode, "", nw.NodeList[i], "node %s has no resistive path to any pad", nw.NodeList[i])
		}
	}
	if floating > maxFloatingReported {
		add(IssueFloatingNode, "", "", "%d further nodes have no resistive path to any pad", floating-maxFloatingReported)
	}
	// Σ|I| may overflow to +Inf; that rejects too.
	if sumI*sumR >= maxDropBound {
		add(IssueDropOverflow, "", "", "Σ|I|·ΣR = %g V bounds the IR drop and is not below %g V, past which the solve overflows", sumI*sumR, float64(maxDropBound))
	}
	return nw, issues
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Codes returns the distinct issue codes in order of first
// appearance, a convenience for tests and log lines.
func (e *DeckError) Codes() []string {
	seen := map[string]bool{}
	var out []string
	for _, is := range e.Issues {
		if !seen[is.Code] {
			seen[is.Code] = true
			out = append(out, is.Code)
		}
	}
	return out
}

// Summary renders a compact one-line listing of the issue codes.
func (e *DeckError) Summary() string {
	return strings.Join(e.Codes(), ",")
}
