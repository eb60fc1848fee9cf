package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
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
	var b strings.Builder
	canonicalTo(&b, nl, true)
	return b.String()
}

// canonicalTo is the one canonicaliser: it streams the canonical form
// of nl (value-free when values is false) to w. Every card is appended
// to one arena, the cards' spans are sorted by their bytes — the order
// sort.Strings gives the lines — and the lines are written out joined
// by newlines, so nothing is materialised per card and nothing twice.
func canonicalTo(w io.Writer, nl *spice.Netlist, values bool) {
	if nl == nil {
		return
	}
	size := 0
	for i := range nl.Elements {
		size += len(nl.Elements[i].NodeA) + len(nl.Elements[i].NodeB) + 32 // type, separators, a float's 24 bytes at most
	}
	arena := make([]byte, 0, size)
	spans := make([][2]int, len(nl.Elements))
	for i := range nl.Elements {
		e := &nl.Elements[i]
		a, b := e.NodeA, e.NodeB
		// R and C cards are undirected; I and V cards are polarized,
		// so their node order is meaning-bearing and preserved.
		if (e.Type == spice.Resistor || e.Type == spice.Capacitor) && b < a {
			a, b = b, a
		}
		lo := len(arena)
		arena = append(append(append(append(append(arena, e.Type.String()...), ' '), a...), ' '), b...)
		if values { // spice.FormatValue's rendering, appended in place
			arena = strconv.AppendFloat(append(arena, ' '), e.Value, 'g', -1, 64)
		}
		spans[i] = [2]int{lo, len(arena)}
		arena = append(arena, '\n')
	}
	slices.SortFunc(spans, func(x, y [2]int) int {
		return bytes.Compare(arena[x[0]:x[1]], arena[y[0]:y[1]])
	})
	for i, sp := range spans {
		if i == len(spans)-1 {
			sp[1]-- // no newline after the last line
		}
		w.Write(arena[sp[0] : sp[1]+1]) // a hash or a strings.Builder: cannot fail
	}
}

// Fingerprint returns the content address of a netlist: the SHA-256 of
// its canonical form, in lower-case hex. Decks differing only in
// element order, naming, whitespace, or value spelling share a
// fingerprint; any electrical change produces a new one.
func Fingerprint(nl *spice.Netlist) string {
	h := sha256.New()
	canonicalTo(h, nl, true)
	return hex.EncodeToString(h.Sum(nil))
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
	canonicalTo(h, d.Netlist, true)
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
	var b strings.Builder
	canonicalTo(&b, nl, false)
	return b.String()
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
	canonicalTo(h, d.Netlist, false)
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
