// Package spice parses and writes the SPICE power-grid decks used by
// static IR-drop analysis (the ICCAD-2023 contest format): resistor
// cards for straps and vias, current-source cards for cell load, and
// voltage-source cards for power pads. Node names follow the
// convention n<net>_m<layer>_<x>_<y> giving every node a metal layer
// and 2-D coordinates, which the feature stage relies on.
//
// A parsed deck aliases its text: ParseString copies nothing, so every
// Element's Name, NodeA and NodeB (and a circuit.Network's NodeList and
// Names built from them) are substrings that keep the whole deck alive.
// Nothing that outlives the request may hold one — clone the string
// (strings.Clone) or keep indices and numbers instead.
package spice

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
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
	return string(n.Append(make([]byte, 0, 24)))
}

// Append appends the canonical name n<net>_m<layer>_<x>_<y> to b.
func (n Node) Append(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'n'), int64(n.Net), 10)
	b = strconv.AppendInt(append(b, "_m"...), int64(n.Layer), 10)
	b = strconv.AppendInt(append(b, '_'), int64(n.X), 10)
	return strconv.AppendInt(append(b, '_'), int64(n.Y), 10)
}

// ParseNode decodes a canonical node name n<net>_m<layer>_<x>_<y>.
func ParseNode(s string) (Node, error) {
	net, rest, _ := strings.Cut(s, "_")
	layer, rest, _ := strings.Cut(rest, "_")
	x, y, _ := strings.Cut(rest, "_")
	if strings.Count(s, "_") != 3 || len(net) < 2 || net[0] != 'n' || len(layer) < 2 || layer[0] != 'm' {
		return Node{}, fmt.Errorf("spice: node %q does not match n<net>_m<layer>_<x>_<y>", s)
	}
	var v [4]int
	for i, p := range [...]struct{ what, digits string }{{"net id", net[1:]}, {"layer", layer[1:]}, {"x", x}, {"y", y}} {
		var err error
		if v[i], err = strconv.Atoi(p.digits); err != nil {
			return Node{}, fmt.Errorf("spice: node %q: bad %s: %w", s, p.what, err)
		}
	}
	return Node{Net: v[0], Layer: v[1], X: v[2], Y: v[3]}, nil
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

// Parse reads a whole deck from r and hands it to ParseString.
func Parse(r io.Reader) (*Netlist, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, err
	}
	return ParseString(b.String())
}

// ParseString parses a deck in one scan of s. Lines starting with '*'
// or '$' are comments; '.end' ends the deck and any other dot directive
// is skipped; blank lines are ignored. The first line, if a comment,
// becomes the title. Nothing is copied: the title and every element's
// name and node names are substrings of s.
func ParseString(s string) (*Netlist, error) {
	nl := &Netlist{Elements: make([]Element, 0, strings.Count(s, "\n")+1)}
	for lineNo := 1; s != ""; lineNo++ {
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch line[0] {
		case '*', '$':
			if lineNo == 1 {
				nl.Title = strings.TrimSpace(strings.TrimLeft(line, "*$ "))
			}
			continue
		case '.':
			if strings.EqualFold(line, ".end") {
				return nl, nil
			}
			continue // ignore other directives (.op, .option, ...)
		}
		fields, n := fields4(line)
		if n < 4 {
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
	return nl, nil
}

// fields4 returns the first four whitespace-separated fields of a card
// and how many it found (at most four), as strings.Fields would: an
// ASCII splitter, and strings.Fields itself once a byte >= 0x80 shows
// up before the fourth field ends (Unicode spaces separate fields too).
func fields4(line string) (f [4]string, n int) {
	start := -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= utf8.RuneSelf:
			return f, copy(f[:], strings.Fields(line))
		case c == ' ' || c-'\t' < 5: // \t \n \v \f \r
			if start >= 0 {
				f[n], start = line[start:i], -1
				if n++; n == 4 {
					return f, n
				}
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		f[n] = line[start:]
		n++
	}
	return f, n
}

// Write emits the deck in canonical form, terminated by ".end".
func (nl *Netlist) Write(w io.Writer) error {
	_, err := io.WriteString(w, nl.String())
	return err
}

// String renders the deck: the title comment, one "name nodeA nodeB
// value" line per card, ".end". The builder is sized for the deck up
// front and hands its buffer over as the string, without a copy.
func (nl *Netlist) String() string {
	size := len("* \n") + len(nl.Title) + len(".end\n")
	for i := range nl.Elements {
		e := &nl.Elements[i]
		// Three spaces, a newline and the longest FormatValue, -1.2345678901234567e-308.
		size += len(e.Name) + len(e.NodeA) + len(e.NodeB) + 4 + 24
	}
	var b strings.Builder
	b.Grow(size)
	if nl.Title != "" {
		b.WriteString("* " + nl.Title + "\n")
	}
	var line [128]byte // one card, on the stack unless its names are long
	for i := range nl.Elements {
		e := &nl.Elements[i]
		l := append(append(line[:0], e.Name...), ' ')
		l = append(append(l, e.NodeA...), ' ')
		l = append(append(l, e.NodeB...), ' ')
		b.Write(append(strconv.AppendFloat(l, e.Value, 'g', -1, 64), '\n'))
	}
	b.WriteString(".end\n")
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
