package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"irfusion/internal/pgen"
	"irfusion/internal/spice"
)

// Canonical renders a netlist in canonical form: one line per element,
// `<type> <nodeA> <nodeB> <value>`, sorted lexicographically. The
// rendering deliberately drops everything electrically irrelevant —
// the deck title, element names, original line order, whitespace, and
// engineering-suffix spellings (values are normalized through
// spice.FormatValue, and suffixes were already resolved by
// spice.ParseValue) — and orders the node pair of symmetric two-pin
// elements (R and C) lexicographically, so any two decks that describe
// the same network canonicalize identically. This is the single shared
// canonicalizer of the repository: fingerprinting, dataset caching,
// and the serving layer all key off it.
func Canonical(nl *spice.Netlist) string {
	if nl == nil {
		return ""
	}
	lines := make([]string, 0, len(nl.Elements))
	for _, e := range nl.Elements {
		a, b := e.NodeA, e.NodeB
		// R and C cards are undirected; I and V cards are polarized,
		// so their node order is meaning-bearing and preserved.
		if (e.Type == spice.Resistor || e.Type == spice.Capacitor) && b < a {
			a, b = b, a
		}
		lines = append(lines, e.Type.String()+" "+a+" "+b+" "+spice.FormatValue(e.Value))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Fingerprint returns the content address of a netlist: the SHA-256 of
// its canonical form, in lower-case hex. Decks differing only in
// element order, naming, whitespace, or value spelling share a
// fingerprint; any electrical change produces a new one.
func Fingerprint(nl *spice.Netlist) string {
	sum := sha256.Sum256([]byte(Canonical(nl)))
	return hex.EncodeToString(sum[:])
}

// DesignFingerprint extends Fingerprint with the generator metadata
// that shapes downstream artifacts but lives outside the deck: the
// grid dimensions (which set feature-map geometry) and the nominal
// supply voltage (which sets the drop reference). Two designs with the
// same electrical network but different rasterization targets must not
// share cached feature maps.
func DesignFingerprint(d *pgen.Design) string {
	if d == nil {
		return ""
	}
	cFingerprint.Inc()
	h := sha256.New()
	fmt.Fprintf(h, "design w=%d h=%d vdd=%s\n", d.W, d.H, spice.FormatValue(d.VDD))
	io.WriteString(h, Canonical(d.Netlist))
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalTopology renders a netlist in the value-free variant of the
// canonical form: one line per element, `<type> <nodeA> <nodeB>`,
// sorted lexicographically, with every element value dropped. Two
// decks that describe the same network shape — the same elements
// between the same nodes — canonicalize identically even when their
// component values differ. This is exactly the equivalence class of an
// ECO value edit: pgen.Perturb (and a real engineering-change resize)
// touches only resistor values, so a design and all of its ECO
// neighbors share one topology while their DesignFingerprints diverge.
func CanonicalTopology(nl *spice.Netlist) string {
	if nl == nil {
		return ""
	}
	lines := make([]string, 0, len(nl.Elements))
	for _, e := range nl.Elements {
		a, b := e.NodeA, e.NodeB
		// Same node-pair normalization as Canonical: R and C are
		// undirected, I and V are polarized.
		if (e.Type == spice.Resistor || e.Type == spice.Capacitor) && b < a {
			a, b = b, a
		}
		lines = append(lines, e.Type.String()+" "+a+" "+b)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// RoutingFingerprint is the cluster-routing companion of
// DesignFingerprint: the SHA-256 of the design's geometry plus its
// value-free canonical topology. The gateway consistent-hashes this
// key so that a design and its ECO neighbors — identical topology,
// edited values, distinct DesignFingerprints — land on the same shard,
// the one whose artifact cache holds their warm-start donors. Any
// topology change (an added strap, a moved pad, a different die size)
// produces a new routing key and may move the design to another shard,
// which is correct: a topology edit is outside the warm-start delta
// budget anyway.
func RoutingFingerprint(d *pgen.Design) string {
	if d == nil {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "route w=%d h=%d vdd=%s\n", d.W, d.H, spice.FormatValue(d.VDD))
	io.WriteString(h, CanonicalTopology(d.Netlist))
	return hex.EncodeToString(h.Sum(nil))
}

// ShortKey abbreviates a fingerprint for logs and manifest events,
// where the full 64-hex digest is noise.
func ShortKey(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
