package cache

import (
	"crypto/sha256"
	"encoding/hex"
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
	return Fingerprint(nl)
}

// TestFingerprintGeneratedShuffle shuffles a realistic generated deck
// many times: every permutation must canonicalize to the same string.
func TestFingerprintGeneratedShuffle(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("fp", pgen.Real, 16, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(d.Netlist)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		shuffled := &spice.Netlist{
			Title:    "shuffled",
			Elements: append([]spice.Element(nil), d.Netlist.Elements...),
		}
		rng.Shuffle(len(shuffled.Elements), func(i, j int) {
			shuffled.Elements[i], shuffled.Elements[j] = shuffled.Elements[j], shuffled.Elements[i]
		})
		if got := Fingerprint(shuffled); got != want {
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
// every durable key (checkpoint blobs, journal recovery, the admit|,
// sys| and resp| entries) is a hash of them.
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
	}
	for _, seed := range []int64{1, 2} {
		d, err := pgen.Generate(pgen.DefaultConfig("ref", pgen.Real, 32, 32, seed))
		if err != nil {
			t.Fatal(err)
		}
		decks[d.Name] = d.Netlist
		decks[d.Name+" eco"] = pgen.Perturb(d, 0.3, seed).Netlist
	}
	for name, nl := range decks {
		if got, want := Canonical(nl), refCanonical(nl, true); got != want {
			t.Errorf("%s: Canonical differs from the reference:\n got %q\nwant %q", name, got, want)
		}
		if got, want := CanonicalTopology(nl), refCanonical(nl, false); got != want {
			t.Errorf("%s: CanonicalTopology differs from the reference:\n got %q\nwant %q", name, got, want)
		}
		sum := sha256.Sum256([]byte(refCanonical(nl, true)))
		if got, want := Fingerprint(nl), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: Fingerprint %s, reference %s", name, got, want)
		}
	}
}

// TestFingerprintGoldenDigests pins the two design digests to values
// recorded at PR 24 (commit 3d62989), before the canonicaliser was
// rewritten. Checkpoint blob keys, journal recovery and every cache entry
// derive from them: never re-record these for a speed change.
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
