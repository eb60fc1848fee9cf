package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"irfusion/internal/pgen"
	"irfusion/internal/spice"
)

// TestFingerprintStability is the canonicalizer's regression contract:
// decks that describe the same electrical network — however they are
// ordered, named, spaced, or value-spelled — must hash identically,
// and any electrical edit must change the hash.
func TestFingerprintStability(t *testing.T) {
	base := `* base deck
R1 n1_m1_0_0 n1_m1_0_1 0.5
R2 n1_m1_0_1 n1_m1_0_2 2k
I1 n1_m1_0_2 0 1m
V1 n1_vsrc 0 1.1
Rv n1_vsrc n1_m1_0_0 0.01
.end`
	same := []struct {
		name string
		deck string
	}{
		{"shuffled element order", `* reordered
I1 n1_m1_0_2 0 1m
Rv n1_vsrc n1_m1_0_0 0.01
V1 n1_vsrc 0 1.1
R2 n1_m1_0_1 n1_m1_0_2 2k
R1 n1_m1_0_0 n1_m1_0_1 0.5
.end`},
		{"renamed elements and extra whitespace", `* renamed
Rzz9   n1_m1_0_0	n1_m1_0_1   0.5
Rother n1_m1_0_1 n1_m1_0_2 2K
Iload  n1_m1_0_2 0 1m
Vdd    n1_vsrc 0 1.1
Rtap   n1_vsrc n1_m1_0_0 0.01
.end`},
		{"swapped resistor node order", `* swapped
R1 n1_m1_0_1 n1_m1_0_0 0.5
R2 n1_m1_0_2 n1_m1_0_1 2000
I1 n1_m1_0_2 0 1m
V1 n1_vsrc 0 1.1
Rv n1_m1_0_0 n1_vsrc 0.01
.end`},
		{"value suffix spelling", `* suffixes
R1 n1_m1_0_0 n1_m1_0_1 500m
R2 n1_m1_0_1 n1_m1_0_2 2000
I1 n1_m1_0_2 0 0.001
V1 n1_vsrc 0 1.1
Rv n1_vsrc n1_m1_0_0 10m
.end`},
	}
	want := parseFP(t, base)
	for _, tc := range same {
		if got := parseFP(t, tc.deck); got != want {
			t.Errorf("%s: fingerprint %s != base %s", tc.name, ShortKey(got), ShortKey(want))
		}
	}

	different := []struct {
		name string
		deck string
	}{
		{"changed resistor value", `* edit
R1 n1_m1_0_0 n1_m1_0_1 0.6
R2 n1_m1_0_1 n1_m1_0_2 2k
I1 n1_m1_0_2 0 1m
V1 n1_vsrc 0 1.1
Rv n1_vsrc n1_m1_0_0 0.01
.end`},
		{"removed element", `* edit
R1 n1_m1_0_0 n1_m1_0_1 0.5
R2 n1_m1_0_1 n1_m1_0_2 2k
I1 n1_m1_0_2 0 1m
V1 n1_vsrc 0 1.1
.end`},
		{"swapped polarized source nodes", `* edit
R1 n1_m1_0_0 n1_m1_0_1 0.5
R2 n1_m1_0_1 n1_m1_0_2 2k
I1 0 n1_m1_0_2 1m
V1 n1_vsrc 0 1.1
Rv n1_vsrc n1_m1_0_0 0.01
.end`},
	}
	for _, tc := range different {
		if got := parseFP(t, tc.deck); got == want {
			t.Errorf("%s: fingerprint unchanged; an electrical edit must re-key", tc.name)
		}
	}
}

func parseFP(t *testing.T, deck string) string {
	t.Helper()
	nl, err := spice.ParseString(deck)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fingerprint(nl)
}

// canonical is the canonical form canonicalTo streams, as a string.
func canonical(nl *spice.Netlist, values bool) string {
	var b strings.Builder
	canonicalTo(&b, nl, values)
	return b.String()
}

// fingerprint is the SHA-256 of nl's canonical form, in lower-case hex.
func fingerprint(nl *spice.Netlist) string {
	h := sha256.New()
	canonicalTo(h, nl, true)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFingerprintGeneratedShuffle shuffles a realistic generated deck
// many times: every permutation must canonicalize to the same string.
func TestFingerprintGeneratedShuffle(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("fp", pgen.Real, 16, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(d.Netlist)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		shuffled := &spice.Netlist{
			Title:    "shuffled",
			Elements: append([]spice.Element(nil), d.Netlist.Elements...),
		}
		rng.Shuffle(len(shuffled.Elements), func(i, j int) {
			shuffled.Elements[i], shuffled.Elements[j] = shuffled.Elements[j], shuffled.Elements[i]
		})
		if got := fingerprint(shuffled); got != want {
			t.Fatalf("trial %d: shuffle changed fingerprint", trial)
		}
	}
}

func TestDesignFingerprintMetadata(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("fp", pgen.Real, 16, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	base := DesignFingerprint(d)
	if base == "" || DesignFingerprint(nil) != "" {
		t.Fatal("DesignFingerprint zero-value handling broken")
	}
	wider := *d
	wider.W = d.W * 2
	if DesignFingerprint(&wider) == base {
		t.Fatal("raster geometry change did not re-key the design")
	}
	renamed := *d
	renamed.Name = "other-name"
	if DesignFingerprint(&renamed) != base {
		t.Fatal("design name leaked into the fingerprint")
	}
	if DesignFingerprint(pgen.Perturb(d, 1, 3)) == base {
		t.Fatal("perturbed netlist kept the baseline fingerprint")
	}
}

// TestRoutingFingerprintECOInvariance pins the cluster-routing
// contract: an ECO value edit (pgen.Perturb touches only resistor
// values) must keep the routing key — so the gateway keeps sending the
// design to the shard holding its warm-start artifacts — while the
// exact DesignFingerprint diverges; any topology or geometry change
// must re-key.
func TestRoutingFingerprintECOInvariance(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("route", pgen.Real, 24, 24, 17))
	if err != nil {
		t.Fatal(err)
	}
	base := RoutingFingerprint(d)
	if base == "" || RoutingFingerprint(nil) != "" {
		t.Fatal("RoutingFingerprint zero-value handling broken")
	}
	for _, seed := range []int64{3, 4, 5} {
		eco := pgen.Perturb(d, 0.05, seed)
		if RoutingFingerprint(eco) != base {
			t.Fatalf("seed %d: ECO perturbation changed the routing key", seed)
		}
		if DesignFingerprint(eco) == DesignFingerprint(d) {
			t.Fatalf("seed %d: ECO perturbation left the exact fingerprint unchanged", seed)
		}
	}
	wider := *d
	wider.W = d.W * 2
	if RoutingFingerprint(&wider) == base {
		t.Fatal("geometry change did not re-key routing")
	}
	// Drop one element: a topology edit must move the key.
	trimmed := *d
	trimmed.Netlist = &spice.Netlist{
		Title:    d.Netlist.Title,
		Elements: append([]spice.Element(nil), d.Netlist.Elements[1:]...),
	}
	if RoutingFingerprint(&trimmed) == base {
		t.Fatal("topology edit did not re-key routing")
	}
	renamed := *d
	renamed.Name = "other"
	if RoutingFingerprint(&renamed) != base {
		t.Fatal("design name leaked into the routing key")
	}
}

// refCanonical is the canonicaliser canonicalTo replaced (PR 25) — one
// concatenated string per card, sort.Strings, strings.Join — kept as the
// oracle: the canonical bytes of every netlist must not move, because
// every durable key (journal recovery, the admit|, sys| and resp|
// entries) is a hash of them.
func refCanonical(nl *spice.Netlist, values bool) string {
	if nl == nil {
		return ""
	}
	lines := make([]string, 0, len(nl.Elements))
	for _, e := range nl.Elements {
		a, b := e.NodeA, e.NodeB
		if (e.Type == spice.Resistor || e.Type == spice.Capacitor) && b < a {
			a, b = b, a
		}
		line := e.Type.String() + " " + a + " " + b
		if values {
			line += " " + spice.FormatValue(e.Value)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestCanonicalMatchesReference(t *testing.T) {
	el := func(typ spice.ElemType, a, b string, v float64) spice.Element {
		return spice.Element{Type: typ, Name: "x", NodeA: a, NodeB: b, Value: v}
	}
	decks := map[string]*spice.Netlist{
		"nil":   nil,
		"empty": {},
		"one":   {Elements: []spice.Element{el(spice.Resistor, "b", "a", 1)}},
		"reversed R/C terminals, polarised I/V, duplicates": {Elements: []spice.Element{
			el(spice.Resistor, "n1_m1_1_0", "n1_m1_0_0", 0.5), el(spice.Resistor, "n1_m1_0_0", "n1_m1_1_0", 0.5),
			el(spice.Capacitor, "n1_m1_1_0", "0", 1e-15), el(spice.Capacitor, "0", "n1_m1_1_0", 1e-15),
			el(spice.CurrentSource, "n1_m1_1_0", "0", 1e-3), el(spice.CurrentSource, "0", "n1_m1_1_0", 1e-3),
			el(spice.VoltageSource, "n1_m4_0_0", "0", 1.1), el(spice.VoltageSource, "0", "n1_m4_0_0", 1.1),
			el(spice.Resistor, "n1_m1_0_0", "n1_m1_1_0", 0.5),
		}},
		// "R n1_m1_0_1 x" sorts before "R n1_m1_0_10 x" only because the
		// separator (0x20) is below '0': whole lines are compared, not fields.
		"a name that is a prefix of another": {Elements: []spice.Element{
			el(spice.Resistor, "n1_m1_0_10", "z", 1), el(spice.Resistor, "n1_m1_0_1", "z", 1),
			el(spice.Resistor, "n1_m1_0_1", "n1_m1_0_10", 2), el(spice.Resistor, "n1_m1_0_100", "n1_m1_0_1", 2),
		}},
		"names holding bytes below the separator": {Elements: []spice.Element{
			el(spice.Resistor, "a\x01", "a", 1), el(spice.Resistor, "a b", "a", 1), el(spice.Resistor, "a", "a\x01b", 1),
			el(spice.Resistor, "a\nb", "a", 1), el(spice.CurrentSource, "a ", "0", 1), el(spice.CurrentSource, "a", " 0", 1),
			el(spice.Resistor, "", "", 0),
		}},
		"value extremes": {Elements: []spice.Element{
			el(spice.Resistor, "a", "b", 1e-320), el(spice.Resistor, "a", "b", 1e21), el(spice.Resistor, "a", "b", 1e20),
			el(spice.CurrentSource, "a", "0", math.Copysign(0, -1)), el(spice.CurrentSource, "a", "0", 0),
			el(spice.Resistor, "a", "b", math.Inf(1)), el(spice.Resistor, "a", "b", math.NaN()),
			el(spice.Resistor, "a", "b", -2.2250738585072014e-308), el(spice.Resistor, "a", "b", 0.1+0.2),
		}},
		"an element type the parser never makes": {Elements: []spice.Element{el(spice.ElemType(7), "a", "b", 1), el(spice.Resistor, "a", "b", 1)}},
		// "R ab c 1", "R ab cdx" and "R abcdefgh hij 1", "R abcdefgh hijkl"
		// fill one and two words exactly; the others end one byte short
		// of a word boundary or one past it.
		"lines of exactly 8 and 16 bytes": {Elements: []spice.Element{
			el(spice.Resistor, "ab", "c", 1), el(spice.Resistor, "ab", "c", 10), el(spice.Resistor, "ab", "cdx", 0),
			el(spice.Resistor, "ab", "cd", 0), el(spice.Resistor, "ab", "cdxy", 0), el(spice.Resistor, "a", "c", 1),
			el(spice.Resistor, "abcdefgh", "hij", 1), el(spice.Resistor, "abcdefgh", "hijkl", 2), el(spice.Resistor, "abcdefgh", "hijk", 2),
			el(spice.Resistor, "abcdefgh", "hijklm", 2), el(spice.Resistor, "abcdefgh", "hij", 10),
		}},
		// Value-free, these lines are equal up to trailing NUL bytes. The
		// sort pads a word past a line's end with zero bytes, so they tie
		// on every word and only their lengths order them.
		"lines equal up to trailing NUL bytes": {Elements: []spice.Element{
			el(spice.CurrentSource, "a", "b\x00\x00\x00", 1), el(spice.CurrentSource, "a", "b", 1), el(spice.CurrentSource, "a", "b\x00", 1),
			el(spice.CurrentSource, "a", "b"+strings.Repeat("\x00", 11), 1), el(spice.CurrentSource, "a", "b"+strings.Repeat("\x00", 10), 1),
			el(spice.CurrentSource, "a", "b"+strings.Repeat("\x00", 20), 1), el(spice.CurrentSource, "a", "b\x00\x00\x00", 1),
			el(spice.Resistor, "\x00", "", 0), el(spice.Resistor, "", "", 0), el(spice.Resistor, "", "\x00\x00", 0),
		}},
	}
	// 500 cards sharing a 64-byte prefix: "R " and a 62-byte node name stem.
	stem, rng := strings.Repeat("n1_m1_", 10)+"x_", rand.New(rand.NewSource(3))
	shared := &spice.Netlist{}
	for i := 0; i < 500; i++ {
		a, b := fmt.Sprintf("%s%d", stem, rng.Intn(300)), fmt.Sprintf("%s%d", stem, rng.Intn(300))
		shared.Elements = append(shared.Elements, el(spice.Resistor, a, b, float64(rng.Intn(4))/2))
	}
	decks["500 cards sharing a 64-byte prefix"] = shared
	for _, seed := range []int64{1, 2} {
		d, err := pgen.Generate(pgen.DefaultConfig("ref", pgen.Real, 32, 32, seed))
		if err != nil {
			t.Fatal(err)
		}
		decks[d.Name] = d.Netlist
		decks[d.Name+" eco"] = pgen.Perturb(d, 0.3, seed).Netlist
	}
	for name, nl := range decks {
		if got, want := canonical(nl, true), refCanonical(nl, true); got != want {
			t.Errorf("%s: canonical form differs from the reference:\n got %q\nwant %q", name, got, want)
		}
		if got, want := canonical(nl, false), refCanonical(nl, false); got != want {
			t.Errorf("%s: value-free canonical form differs from the reference:\n got %q\nwant %q", name, got, want)
		}
		sum := sha256.Sum256([]byte(refCanonical(nl, true)))
		if got, want := fingerprint(nl), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: fingerprint %s, reference %s", name, got, want)
		}
	}
}

// FuzzCanonicalDifferential holds canonicalTo to refCanonical on
// element lists decoded from the fuzzer's bytes: every element type,
// unknown ones included; node names holding NUL, 0x01, space and
// newline, built on stems that share prefixes across the 8- and 16-byte
// word boundaries and that are prefixes of one another; duplicate cards;
// and the value extremes of TestCanonicalMatchesReference.
func FuzzCanonicalDifferential(f *testing.F) {
	f.Add([]byte("\x00\x12\x34\x01\x07\x00\x31\x45\x02"))
	f.Add([]byte("\x03\x23\x11\x22\x33\x05\x18\x44\x55\x66\x07\x00\x03\x07\x01"))
	f.Add([]byte(strings.Repeat("\x01\x59\x00\x01\x6a\x02\x03\x04", 8)))
	// I cards "n n\0\0\0", "n n", "n n" and nine NULs: equal up to trailing NULs.
	f.Add([]byte("\x01\x02\x32\x00\x00\x00\x00\x01\x02\x02\x00\x01\x02\x92\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		nl := fuzzNetlist(data)
		for _, values := range []bool{true, false} {
			if got, want := canonical(nl, values), refCanonical(nl, values); got != want {
				t.Fatalf("values=%v: canonical form differs from the reference:\n got %q\nwant %q", values, got, want)
			}
		}
	})
}

// fuzzNetlist decodes up to 64 cards from data. A card is an op byte
// (its low three bits pick the type, 7 repeats an earlier card), one
// name per node, and a value byte; a name is a stem byte (the low
// nibble picks the stem, the high one the number of tail bytes) and its
// tail, each byte one of fuzzAlphabet.
func fuzzNetlist(data []byte) *spice.Netlist {
	stems := []string{"", "0", "n", "n1_m1_", "n1_m1_1", "n1_m1_12", "n1_m1_123456789", "n1_m1_1234567890",
		strings.Repeat("p", 13), strings.Repeat("p", 14), strings.Repeat("p", 15), strings.Repeat("p", 22)}
	const fuzzAlphabet = "\x00\x01 \n0_1amz~"
	values := []float64{0.5, 1, 2000, 1e-320, 1e21, 1e20, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		-2.2250738585072014e-308, 0.1 + 0.2, 5.0004533497343075e-05}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	name := func() string {
		c := next()
		b := []byte(stems[(c&15)%len(stems)])
		for k := (c >> 4) % 10; k > 0; k-- {
			b = append(b, fuzzAlphabet[next()%len(fuzzAlphabet)])
		}
		return string(b)
	}
	nl := &spice.Netlist{}
	for len(data) > 0 && len(nl.Elements) < 64 {
		op := next()
		if op&7 == 7 && len(nl.Elements) > 0 {
			nl.Elements = append(nl.Elements, nl.Elements[next()%len(nl.Elements)])
			continue
		}
		e := spice.Element{Type: spice.ElemType(op & 7), Name: "x", NodeA: name(), NodeB: name()}
		e.Value = values[next()%len(values)]
		nl.Elements = append(nl.Elements, e)
	}
	return nl
}

// TestFingerprintGoldenDigests pins the two design digests to values
// recorded at PR 24 (commit 3d62989), before the canonicaliser was
// rewritten. Journal recovery and every cache entry derive from them:
// never re-record these for a speed change.
func TestFingerprintGoldenDigests(t *testing.T) {
	for _, g := range []struct {
		size            int
		seed            int64
		design, routing string
	}{
		{48, 1, "ddc8f769728cace2828d851b716c7fbf72b2ad51b838cb78a2ab28f29744f329", "73a7e2d3aa2c0160bec93393eab0bbe17b4b3af6e64fa3eaa0cbf3286c8e6739"},
		{48, 2, "40dd35ac7898ba73a43dad34f4791511ed9769b06dd266333ca797079391e54a", "a670af20b6a801a01a8711846b6c4bd0b5b3363730a10545fa26bab69082f57a"},
		{48, 3, "5087be6d68205869e137b7e3a141854d230ec60f806bd361aefb40fef823c509", "6fb6a91875a040b4187c9f9b8e4188ef15013368bb4e383871eee65b114d009b"},
		{128, 1, "2dd29e3d64efeada781a41cdf1cf348ec9770b93e01b36ff9f73931ad8688baf", "151c9daf677f81a91bd2f1b68905a5b854e481152a09bc318db65f8b1bbfc518"},
		{128, 2, "4af2417b1673bc12d42d0abef0e8b5aa83971308bd948341a32782f05c329815", "4c51bf8505bc41483a9c3832cbc069b8a8d2cf5a4ea954903f634c2fcde27198"},
		{128, 3, "48beb41888fb5db40501f41998b04181617acd56c4ca82829bc331e95ded635b", "ce70e2a96017e518b955650a0fcc4e1820bec6b25950068f8a439d32742dcec6"},
	} {
		d, err := pgen.Generate(pgen.DefaultConfig("golden", pgen.Real, g.size, g.size, g.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := DesignFingerprint(d); got != g.design {
			t.Errorf("Real %d µm seed %d: DesignFingerprint %s, recorded %s", g.size, g.seed, got, g.design)
		}
		if got := RoutingFingerprint(d); got != g.routing {
			t.Errorf("Real %d µm seed %d: RoutingFingerprint %s, recorded %s", g.size, g.seed, got, g.routing)
		}
	}
}
