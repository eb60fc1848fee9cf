// Package spice parses and writes the SPICE power-grid decks used by
// static IR-drop analysis (the ICCAD-2023 contest format): resistor
// cards for straps and vias, current-source cards for cell load, and
// voltage-source cards for power pads. Node names follow the
// convention n<net>_m<layer>_<x>_<y> giving every node a metal layer
// and 2-D coordinates, which the feature stage relies on.
package spice

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ElemType identifies a SPICE card type.
type ElemType int

const (
	// Resistor is an R card: metal strap segment or via.
	Resistor ElemType = iota
	// CurrentSource is an I card: cell current draw to ground.
	CurrentSource
	// VoltageSource is a V card: power pad tied to VDD.
	VoltageSource
	// Capacitor is a C card: decoupling or parasitic capacitance,
	// used by the transient-analysis extension.
	Capacitor
)

func (t ElemType) String() string {
	switch t {
	case Resistor:
		return "R"
	case CurrentSource:
		return "I"
	case VoltageSource:
		return "V"
	case Capacitor:
		return "C"
	default:
		return fmt.Sprintf("ElemType(%d)", int(t))
	}
}

// Element is one parsed card.
type Element struct {
	Type  ElemType
	Name  string
	NodeA string
	NodeB string
	Value float64
}

// Netlist is a parsed deck.
type Netlist struct {
	Title    string
	Elements []Element
}

// Ground is the name of the ground node.
const Ground = "0"

// Node is a parsed structured node name.
type Node struct {
	Net   int // power net id (n1, n2, ...)
	Layer int // metal layer (m1, m4, ...)
	X, Y  int // coordinates in database units (typically nm)
}

// String formats the node back into the canonical name.
func (n Node) String() string {
	return fmt.Sprintf("n%d_m%d_%d_%d", n.Net, n.Layer, n.X, n.Y)
}

// ParseNode decodes a canonical node name n<net>_m<layer>_<x>_<y>.
func ParseNode(s string) (Node, error) {
	parts := strings.Split(s, "_")
	if len(parts) != 4 || len(parts[0]) < 2 || parts[0][0] != 'n' ||
		len(parts[1]) < 2 || parts[1][0] != 'm' {
		return Node{}, fmt.Errorf("spice: node %q does not match n<net>_m<layer>_<x>_<y>", s)
	}
	net, err := strconv.Atoi(parts[0][1:])
	if err != nil {
		return Node{}, fmt.Errorf("spice: node %q: bad net id: %w", s, err)
	}
	layer, err := strconv.Atoi(parts[1][1:])
	if err != nil {
		return Node{}, fmt.Errorf("spice: node %q: bad layer: %w", s, err)
	}
	x, err := strconv.Atoi(parts[2])
	if err != nil {
		return Node{}, fmt.Errorf("spice: node %q: bad x: %w", s, err)
	}
	y, err := strconv.Atoi(parts[3])
	if err != nil {
		return Node{}, fmt.Errorf("spice: node %q: bad y: %w", s, err)
	}
	return Node{Net: net, Layer: layer, X: x, Y: y}, nil
}

// suffixes maps SPICE engineering suffixes to multipliers. "meg" must
// be checked before "m".
var suffixes = []struct {
	s string
	m float64
}{
	{"meg", 1e6},
	{"t", 1e12},
	{"g", 1e9},
	{"k", 1e3},
	{"m", 1e-3},
	{"u", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
}

// ParseValue parses a SPICE numeric literal with an optional
// engineering suffix (case-insensitive), e.g. "1.5k", "20u", "3meg".
// Trailing unit letters after the suffix (as in "10kohm") are ignored,
// matching SPICE semantics.
func ParseValue(s string) (float64, error) {
	ls := strings.ToLower(strings.TrimSpace(s))
	if ls == "" {
		return 0, fmt.Errorf("spice: empty value")
	}
	// Split numeric prefix from the alphabetic tail.
	end := len(ls)
	for i, c := range ls {
		if (c < '0' || c > '9') && c != '.' && c != '-' && c != '+' && c != 'e' {
			end = i
			break
		}
		// 'e' is only part of the number when followed by digit/sign.
		if c == 'e' {
			if i+1 >= len(ls) || !(ls[i+1] == '-' || ls[i+1] == '+' || (ls[i+1] >= '0' && ls[i+1] <= '9')) {
				end = i
				break
			}
		}
	}
	num, err := strconv.ParseFloat(ls[:end], 64)
	if err != nil {
		return 0, fmt.Errorf("spice: bad numeric value %q: %w", s, err)
	}
	tail := ls[end:]
	for _, suf := range suffixes {
		if strings.HasPrefix(tail, suf.s) {
			return num * suf.m, nil
		}
	}
	return num, nil
}

// FormatValue renders v compactly for deck output.
func FormatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Parse reads a deck. Lines starting with '*' or '$' are comments;
// '.end' (and any other dot directive) ends/skips; blank lines are
// ignored. The first comment line, if any, becomes the title.
func Parse(r io.Reader) (*Netlist, error) {
	nl := &Netlist{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch line[0] {
		case '*', '$':
			if nl.Title == "" && lineNo == 1 {
				nl.Title = strings.TrimSpace(strings.TrimLeft(line, "*$ "))
			}
			continue
		case '.':
			if strings.EqualFold(line, ".end") {
				return nl, sc.Err()
			}
			continue // ignore other directives (.op, .option, ...)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("spice: line %d: expected 'name nodeA nodeB value', got %q", lineNo, line)
		}
		var typ ElemType
		switch c := line[0] | 0x20; c { // ASCII lower-case
		case 'r':
			typ = Resistor
		case 'i':
			typ = CurrentSource
		case 'v':
			typ = VoltageSource
		case 'c':
			typ = Capacitor
		default:
			return nil, fmt.Errorf("spice: line %d: unsupported element %q", lineNo, fields[0])
		}
		val, err := ParseValue(fields[3])
		if err != nil {
			return nil, fmt.Errorf("spice: line %d: %w", lineNo, err)
		}
		nl.Elements = append(nl.Elements, Element{
			Type:  typ,
			Name:  fields[0],
			NodeA: fields[1],
			NodeB: fields[2],
			Value: val,
		})
	}
	return nl, sc.Err()
}

// ParseString parses a deck held in a string.
func ParseString(s string) (*Netlist, error) {
	return Parse(strings.NewReader(s))
}

// Write emits the deck in canonical form, terminated by ".end".
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if nl.Title != "" {
		fmt.Fprintf(bw, "* %s\n", nl.Title)
	}
	for _, e := range nl.Elements {
		fmt.Fprintf(bw, "%s %s %s %s\n", e.Name, e.NodeA, e.NodeB, FormatValue(e.Value))
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// String renders the deck to a string.
func (nl *Netlist) String() string {
	var b strings.Builder
	_ = nl.Write(&b)
	return b.String()
}

// Counts returns the number of R, I, and V cards.
func (nl *Netlist) Counts() (nr, ni, nv int) {
	for _, e := range nl.Elements {
		switch e.Type {
		case Resistor:
			nr++
		case CurrentSource:
			ni++
		case VoltageSource:
			nv++
		}
	}
	return
}
