package spice

import (
	"math"
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
