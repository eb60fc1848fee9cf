package spice

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1},
		{"1.5", 1.5},
		{"-2.5", -2.5},
		{"1k", 1e3},
		{"2K", 2e3},
		{"3meg", 3e6},
		{"3MEG", 3e6},
		{"4m", 4e-3},
		{"5u", 5e-6},
		{"6n", 6e-9},
		{"7p", 7e-12},
		{"8f", 8e-15},
		{"9g", 9e9},
		{"1t", 1e12},
		{"1e-3", 1e-3},
		{"2.5e2", 250},
		{"10kohm", 1e4},
		{"0.001", 0.001},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "..", "k5"} {
		if _, err := ParseValue(in); err == nil {
			t.Errorf("ParseValue(%q): expected error", in)
		}
	}
}

func TestParseNodeRoundTrip(t *testing.T) {
	err := quick.Check(func(net, layer uint8, x, y uint16) bool {
		n := Node{Net: int(net), Layer: int(layer), X: int(x), Y: int(y)}
		back, err := ParseNode(n.String())
		return err == nil && back == n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestNodeStringMatchesSprintf: the strconv formatter writes what
// fmt.Sprintf("n%d_m%d_%d_%d", ...) wrote, for negative, zero and
// multi-digit fields alike, and Append appends exactly that.
func TestNodeStringMatchesSprintf(t *testing.T) {
	check := func(n Node) bool {
		want := fmt.Sprintf("n%d_m%d_%d_%d", n.Net, n.Layer, n.X, n.Y)
		return n.String() == want && string(n.Append([]byte("x"))) == "x"+want
	}
	for _, n := range []Node{
		{}, {1, 1, 0, 0}, {2, 10, 255, 1024}, {-1, -12, -345, -6789},
		{math.MaxInt, math.MinInt, math.MaxInt32, math.MinInt64},
	} {
		if !check(n) {
			t.Errorf("%+v: String %q, want %q", n, n.String(), fmt.Sprintf("n%d_m%d_%d_%d", n.Net, n.Layer, n.X, n.Y))
		}
	}
	if err := quick.Check(func(net, layer int16, x, y int) bool { return check(Node{int(net), int(layer), x, y}) }, nil); err != nil {
		t.Error(err)
	}
}

func TestParseNodeErrors(t *testing.T) {
	for _, in := range []string{"", "0", "n1_m2_3", "x1_m2_3_4", "n1_x2_3_4", "n_m2_3_4", "n1_m2_a_4", "n1_m2_3_b"} {
		if _, err := ParseNode(in); err == nil {
			t.Errorf("ParseNode(%q): expected error", in)
		}
	}
}

const sampleDeck = `* test power grid
R1 n1_m1_0_0 n1_m1_1000_0 0.5
R2 n1_m1_1000_0 n1_m4_1000_0 2m
i1 n1_m1_1000_0 0 10m
V1 n1_m4_1000_0 0 1.1

$ trailing comment
.end
R9 should_not_parse x 1
`

func TestParseDeck(t *testing.T) {
	nl, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Title != "test power grid" {
		t.Errorf("Title = %q", nl.Title)
	}
	nr, ni, nv := nl.Counts()
	if nr != 2 || ni != 1 || nv != 1 {
		t.Fatalf("Counts = %d,%d,%d; want 2,1,1", nr, ni, nv)
	}
	if nl.Elements[1].Value != 2e-3 {
		t.Errorf("R2 value = %v, want 2m", nl.Elements[1].Value)
	}
	if nl.Elements[2].Type != CurrentSource || nl.Elements[2].NodeB != Ground {
		t.Errorf("I card parsed wrong: %+v", nl.Elements[2])
	}
	if nl.Elements[3].Type != VoltageSource || nl.Elements[3].Value != 1.1 {
		t.Errorf("V card parsed wrong: %+v", nl.Elements[3])
	}
}

func TestParseStopsAtEnd(t *testing.T) {
	nl, err := ParseString("R1 a b 1\n.end\nR2 c d 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Elements) != 1 {
		t.Errorf("parsed %d elements, want 1 (stop at .end)", len(nl.Elements))
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, deck := range []string{
		"R1 a b\n",       // missing value
		"Q1 a b 1\n",     // unknown element
		"R1 a b zz\n",    // bad value
		"R1 a b 1 2 3\n", // extra fields tolerated? no: fields>=4 ok, extras ignored
	} {
		_, err := ParseString(deck)
		if deck == "R1 a b 1 2 3\n" {
			if err != nil {
				t.Errorf("extra fields should be tolerated: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("deck %q: expected parse error", deck)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	nl, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	out := nl.String()
	if !strings.HasSuffix(strings.TrimSpace(out), ".end") {
		t.Error("writer must terminate with .end")
	}
	back, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Elements) != len(nl.Elements) {
		t.Fatalf("round trip lost elements: %d vs %d", len(back.Elements), len(nl.Elements))
	}
	for i := range back.Elements {
		a, b := back.Elements[i], nl.Elements[i]
		if a.Type != b.Type || a.NodeA != b.NodeA || a.NodeB != b.NodeB ||
			math.Abs(a.Value-b.Value) > 1e-15*math.Abs(b.Value) {
			t.Errorf("element %d changed: %+v vs %+v", i, a, b)
		}
	}
}

// TestWriteMatchesFmt: the append renderer writes the bytes the
// fmt-based writer wrote, with and without a title and at the value
// extremes, and Write emits exactly String.
func TestWriteMatchesFmt(t *testing.T) {
	fmtDeck := func(nl *Netlist) string {
		var b strings.Builder
		if nl.Title != "" {
			fmt.Fprintf(&b, "* %s\n", nl.Title)
		}
		for _, e := range nl.Elements {
			fmt.Fprintf(&b, "%s %s %s %s\n", e.Name, e.NodeA, e.NodeB, FormatValue(e.Value))
		}
		fmt.Fprintln(&b, ".end")
		return b.String()
	}
	nl, err := ParseString(sampleDeck)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-math.MaxFloat64, -1.2345678901234567e-308, 5e-324, 0, 1, 1.05, 1e21, math.Inf(-1), math.NaN()} {
		nl.Elements = append(nl.Elements, Element{Type: CurrentSource, Name: "Ix", NodeA: "n1_m1_0_0", NodeB: Ground, Value: v})
	}
	for _, title := range []string{nl.Title, ""} {
		nl.Title = title
		var w strings.Builder
		if err := nl.Write(&w); err != nil {
			t.Fatal(err)
		}
		if got, want := nl.String(), fmtDeck(nl); got != want || w.String() != want {
			t.Errorf("title %q: String\n%s\nWrite\n%s\nwant\n%s", title, got, w.String(), want)
		}
	}
	if len((&Netlist{}).String()) != len(".end\n") {
		t.Error("an empty deck is not just .end")
	}
}

func TestElemTypeString(t *testing.T) {
	if Resistor.String() != "R" || CurrentSource.String() != "I" || VoltageSource.String() != "V" {
		t.Error("ElemType strings wrong")
	}
}

func TestCaseInsensitiveCards(t *testing.T) {
	nl, err := ParseString("rX a b 1\nIY c 0 2\nvZ d 0 3\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if nl.Elements[0].Type != Resistor || nl.Elements[1].Type != CurrentSource || nl.Elements[2].Type != VoltageSource {
		t.Error("case-insensitive card detection failed")
	}
}

func TestCapacitorCards(t *testing.T) {
	nl, err := ParseString("C1 n1_m1_0_0 0 20f\nc2 n1_m1_1_0 n1_m1_2_0 1p\nR1 n1_m1_0_0 n1_m1_1_0 1\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if nl.Elements[0].Type != Capacitor || math.Abs(nl.Elements[0].Value-20e-15) > 1e-27 {
		t.Errorf("C1 parsed wrong: %+v", nl.Elements[0])
	}
	if Capacitor.String() != "C" {
		t.Error("Capacitor String wrong")
	}
	if ElemType(99).String() != "ElemType(99)" {
		t.Error("unknown ElemType formatting wrong")
	}
}

// refParse is the bufio.Scanner parser ParseString replaced (PR 25),
// kept verbatim as the oracle of the differential tests: same title,
// same elements, same error text on every deck.
func refParse(r io.Reader) (*Netlist, error) {
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

// DiffParse holds ParseString to refParse on one deck. Exported for the
// external test package, whose corpus comes from pgen.
func DiffParse(t testing.TB, deck string) {
	t.Helper()
	want, wantErr := refParse(strings.NewReader(deck))
	got, gotErr := ParseString(deck)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("error %v, reference %v\ndeck: %.200q", gotErr, wantErr, deck)
	}
	if wantErr != nil {
		if got != nil {
			t.Fatalf("error %v with a non-nil netlist", gotErr)
		}
		return
	}
	if got.Title != want.Title || len(got.Elements) != len(want.Elements) {
		t.Fatalf("title %q, %d elements; reference %q, %d\ndeck: %.200q",
			got.Title, len(got.Elements), want.Title, len(want.Elements), deck)
	}
	for i, e := range want.Elements {
		// Bitwise on the value, so a NaN the grammar lets through ("nan")
		// compares equal to itself.
		g := got.Elements[i]
		if g.Type != e.Type || g.Name != e.Name || g.NodeA != e.NodeA || g.NodeB != e.NodeB ||
			math.Float64bits(g.Value) != math.Float64bits(e.Value) {
			t.Fatalf("element %d: %+v, reference %+v\ndeck: %.200q", i, g, e, deck)
		}
	}
}

func TestParseDifferential(t *testing.T) {
	long := "R1 a b 1 " + strings.Repeat("x", 2<<20) + "\nR2 c d 2\n"
	for _, deck := range []string{
		sampleDeck,
		"R1 a b 1\n.end\nR2 c d 2\n", // .END mid-deck
		"R1 a b 1\n.EnD\nR2 c d 2\n",
		"R1 a b\n", "Q1 a b 1\n", "R1 a b zz\n", "R1 a b 1 2 3\n", "rx a\n", "x1 a b 1\n", "r1 a b 1e999\n",
		"rX a b 1\nIY c 0 2\nvZ d 0 3\n.end\n",
		"C1 n1_m1_0_0 0 20f\nc2 n1_m1_1_0 n1_m1_2_0 1p\n",
		"", "\n", "\n\n", ".end", "* only a title", "$ dollar title\nR1 a b 1",
		"\n* not a title: line 2\nR1 a b 1\n",
		"*\n* an empty title on line 1 stays empty\nR1 a b 1\n",
		"R1 a b 1\r\nR2 c d 2\r\n.end\r\n",              // CRLF
		"R1 a b 1\r\r\n",                                // one CR ends the line; the rest is space
		"R1 a b 1\nR2 c d 2",                            // last line without newline
		"R1 a b 1\nR2 c d",                              // ... and short
		"\tR1\ta\vb\f4e-3\t\n \v\f\r\n",                 // tabs, VT, FF
		"R1 a\u0085b c 1\n",                             // U+0085 NEL separates fields
		"R1\u00a0a\u00a0b\u00a01\n",                     // U+00A0 NBSP too
		"R1 a b\u2028c 1\n",                             // U+2028 LINE SEPARATOR too
		"\u00a0R1 a b 1\u2028\n",                        // ... and all are trimmed at the ends
		"\u00a0\u0085\n\u2028* comment after a space\n", // a line of Unicode space only is blank
		"R1 a b 1\u00e9trailing\n",                      // a non-space rune inside the fourth field
		"R1 a b 1 \u00a0 x\n",                           // high bytes after the fourth field
		"R\u00e9 n\xff a 1\n",                           // invalid UTF-8 is a field byte
		"\xffR1 a b 1\n",                                // unsupported element, quoted through %q
		"R1 a b\u00a0\n",                                // three fields once the space is trimmed
		"r1 a b 1e5K\nR2 A B 3MEG\ni1 x 0 -0\nr3 a b nan\n",
		"R1 a b 1\x00\nR2\x00 c d 2\n",             // NUL is not a space
		"R1 a b 1\n  .option post\n  * indented\n", // directives and comments after leading space
		long,
	} {
		DiffParse(t, deck)
	}
}

// refParseNode is the strings.Split decoder ParseNode replaced (PR 25).
func refParseNode(s string) (Node, error) {
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

func TestParseNodeDifferential(t *testing.T) {
	for _, name := range []string{
		"n1_m1_0_0", "n12_m4_127000_64000", "n1_m1_-5_-7", "n1_m1_+5_7",
		"n_m1_0_0", "n1_m_0_0", "n1_m1_0_0_9", "n1_m1_0_0_", "_n1_m1_0_0", "n1_m1_0_", "n1_m1__0",
		"n1_m1_0", "n1_m1", "n1", "", "0", "_", "___", "____",
		"x1_m1_0_0", "n1_x1_0_0", "nx_m1_0_0", "n1_mx_0_0", "n1_m1_a_0", "n1_m1_0_b",
		"n1_m1_99999999999999999999_0", "n99999999999999999999_m1_0_0", "n1_m1_0_\xff", "n1_m1_0_0 ",
	} {
		DiffParseNode(t, name)
	}
}

// DiffParseNode holds ParseNode to refParseNode on one name: equal Node,
// equal error text.
func DiffParseNode(t testing.TB, name string) {
	t.Helper()
	want, wantErr := refParseNode(name)
	got, gotErr := ParseNode(name)
	if got != want || (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Errorf("ParseNode(%q) = %+v, %v; reference %+v, %v", name, got, gotErr, want, wantErr)
	}
}
