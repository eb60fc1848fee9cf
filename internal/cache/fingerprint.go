package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"irfusion/internal/pgen"
	"irfusion/internal/spice"
)

// canonicalTo is the one canonicaliser: it streams the canonical form
// of nl to w — one line per element, `<type> <nodeA> <nodeB> <value>`
// (no value when values is false), sorted bytewise, joined by newlines.
// It drops what is electrically irrelevant (title, element names, card
// order, whitespace, value spelling: values render as spice.FormatValue
// renders them) and orders the nodes of undirected R and C cards, so
// decks that describe the same network canonicalize identically. Cards
// go into one arena, sorted there by sortLines; a value is rendered once
// and then copied while its slot in a 256-slot table keyed by its bits,
// which lives and dies with the call, still holds it.
func canonicalTo(w io.Writer, nl *spice.Netlist, values bool) {
	if nl == nil {
		return
	}
	size := 0
	for i := range nl.Elements {
		size += len(nl.Elements[i].NodeA) + len(nl.Elements[i].NodeB) + 32 // type, separators, a float's 24 bytes at most
	}
	arena := make([]byte, 0, size)
	lines := make([]line, len(nl.Elements))
	var memo [256]line // arena[lo:hi] renders the value whose bits are key; hi == 0: empty
	for i := range nl.Elements {
		e := &nl.Elements[i]
		a, b := e.NodeA, e.NodeB
		if (e.Type == spice.Resistor || e.Type == spice.Capacitor) && b < a {
			a, b = b, a
		}
		lo := len(arena)
		arena = append(append(append(append(append(arena, e.Type.String()...), ' '), a...), ' '), b...)
		if values {
			arena = append(arena, ' ')
			bits := math.Float64bits(e.Value)
			if m := &memo[bits*0x9e3779b97f4a7c15>>56]; m.hi > 0 && m.key == bits {
				arena = append(arena, arena[m.lo:m.hi]...)
			} else {
				v := len(arena)
				arena = strconv.AppendFloat(arena, e.Value, 'g', -1, 64)
				*m = line{bits, v, len(arena)}
			}
		}
		lines[i] = line{lo: lo, hi: len(arena)}
		arena = append(arena, '\n')
	}
	sortLines(arena, lines)
	for i, l := range lines {
		if i < len(lines)-1 {
			l.hi++ // the newline
		}
		w.Write(arena[l.lo:l.hi]) // a hash or a strings.Builder: cannot fail
	}
}

// line is arena[lo:hi]; key is the word of it that sortLines is at.
type line struct {
	key    uint64
	lo, hi int
}

// sortLines puts lines in bytes.Compare order — sort.Strings order — by
// an MSD sort on big-endian 8-byte words. Each level sorts a run of
// lines tied on every earlier word by the word at off, zero-padded past
// a line's end; of lines tied on it too, those ending inside the word
// are prefixes of the rest and go first, by length, and the rest go on
// to the next word. A shared prefix is read once per level, not once per
// comparison; each level is one pdqsort, O(n log n) on any deck.
func sortLines(arena []byte, lines []line) {
	type run struct {
		lines []line
		off   int
	}
	for todo := []run{{lines, 0}}; len(todo) > 0; {
		r := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for k, l := range r.lines {
			r.lines[k].key = word(arena[l.lo:l.hi], r.off)
		}
		slices.SortFunc(r.lines, byKey)
		for rest := r.lines; len(rest) > 0; {
			n := 1
			for n < len(rest) && rest[n].key == rest[0].key {
				n++
			}
			tied, ends := rest[:n], 0 // tied[:ends] end inside the word
			rest = rest[n:]
			for k, l := range tied {
				if l.hi-l.lo <= r.off+8 {
					tied[ends], tied[k] = l, tied[ends]
					ends++
				}
			}
			slices.SortFunc(tied[:ends], func(x, y line) int { return (x.hi - x.lo) - (y.hi - y.lo) })
			if n-ends > 1 {
				todo = append(todo, run{tied[ends:], r.off + 8})
			}
		}
	}
}

// byKey is cmp.Compare on the keys, written to compile without branches.
func byKey(x, y line) int {
	lt, gt := 0, 0
	if x.key < y.key {
		lt = 1
	}
	if x.key > y.key {
		gt = 1
	}
	return gt - lt
}

// word returns the 8 bytes of s from off on as a big-endian integer,
// zero past the end of s.
func word(s []byte, off int) uint64 {
	if off+8 <= len(s) {
		return binary.BigEndian.Uint64(s[off:])
	}
	var b [8]byte
	copy(b[:], s[off:])
	return binary.BigEndian.Uint64(b[:])
}

// DesignFingerprint returns the content address of a design: the
// SHA-256, in lower-case hex, of its canonical netlist and the metadata
// that shapes downstream artifacts but lives outside the deck: the grid
// dimensions (feature-map geometry) and the nominal supply voltage (the
// drop reference). Decks differing only in element order, naming,
// whitespace, or value spelling share it; any electrical change re-keys.
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

// RoutingFingerprint is the cluster-routing companion of
// DesignFingerprint: the SHA-256 of the design's geometry plus its
// value-free canonical form, which an ECO value edit (pgen.Perturb, or a
// real engineering-change resize) keeps. The gateway consistent-hashes
// this key so that a design and its ECO neighbors — identical topology,
// edited values, distinct DesignFingerprints — land on the same shard,
// the one whose artifact cache holds their warm-start donors. Any
// topology change (an added strap, a moved pad, a different die size)
// produces a new routing key, which is correct: a topology edit is
// outside the warm-start delta budget anyway.
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
