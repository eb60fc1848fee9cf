// Package pgen synthesizes power-grid designs that stand in for the
// ICCAD-2023 static IR-drop contest dataset (which mixes 100 BeGAN-
// generated "fake" designs with 20 real ones). A design is a SPICE
// deck: multi-layer strap networks joined by vias, per-cell current
// loads on the bottom layer, and VDD pads on the top layer.
//
// Two regimes mirror the contest's difficulty split used by the
// paper's curriculum learning:
//
//   - Fake: regular strap pitches, uniform via population, pads on a
//     regular grid, smooth current with a couple of hotspot blobs.
//   - Real: jittered/deleted straps, sparser vias, irregular pad
//     placement, macro blockages that carve holes in the lower
//     layers, and more numerous, sharper current hotspots.
//
// All geometry is in integer micrometres; one µm is one pixel in the
// image representation, matching the contest's 1µm×1µm tiles.
package pgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"irfusion/internal/circuit"
	"irfusion/internal/spice"
)

// Class labels the design difficulty regime.
type Class int

const (
	// Fake designs are regular, artificially generated grids
	// (the "easier" curriculum bucket).
	Fake Class = iota
	// Real designs are irregular grids with blockages and skewed pads
	// (the "harder" curriculum bucket).
	Real
)

func (c Class) String() string {
	if c == Fake {
		return "fake"
	}
	return "real"
}

// Direction of the straps on a metal layer.
type Direction int

const (
	// horizontal straps run along x at fixed y.
	horizontal Direction = iota
	// vertical straps run along y at fixed x.
	vertical
)

// LayerSpec describes one metal layer of the PG stack.
type LayerSpec struct {
	Layer    int       `json:"layer"`     // metal layer number (m1, m4, ...)
	Dir      Direction `json:"dir"`       // strap direction
	Pitch    int       `json:"pitch"`     // strap pitch in µm
	RPerUm   float64   `json:"r_per_um"`  // wire resistance in Ω/µm
	ViaOhms  float64   `json:"via_ohms"`  // resistance of a via up to the next layer
	ViaEvery int       `json:"via_every"` // populate every k-th crossing with a via (≥1)
}

// Config parameterizes generation.
type Config struct {
	Name  string `json:"name"`
	Class Class  `json:"class"`
	Seed  int64  `json:"seed"`
	// W, H are the die dimensions in µm (== pixels).
	W int `json:"w"`
	H int `json:"h"`
	// VDD is the pad voltage.
	VDD float64 `json:"vdd"`
	// Layers is the stack, bottom first. If nil, defaultStack is used.
	Layers []LayerSpec `json:"layers,omitempty"`
	// NumPads is the number of VDD pads on the top layer.
	NumPads int `json:"num_pads"`
	// CellPitch is the load attachment pitch along m1 straps (µm).
	CellPitch int `json:"cell_pitch"`
	// BackgroundAmps is the per-cell background current draw.
	BackgroundAmps float64 `json:"background_amps"`
	// Hotspots is the number of Gaussian current blobs.
	Hotspots int `json:"hotspots"`
	// HotspotAmps is the peak extra per-cell current inside a blob.
	HotspotAmps float64 `json:"hotspot_amps"`
	// Blockages is the number of macro cut-outs (Real designs).
	Blockages int `json:"blockages"`
}

// defaultStack returns a five-layer stack patterned after the contest
// designs (m1 cell rails up to a coarse m9 mesh).
func defaultStack() []LayerSpec {
	return []LayerSpec{
		{Layer: 1, Dir: horizontal, Pitch: 2, RPerUm: 0.8, ViaOhms: 2.0, ViaEvery: 1},
		{Layer: 4, Dir: vertical, Pitch: 4, RPerUm: 0.4, ViaOhms: 1.0, ViaEvery: 1},
		{Layer: 7, Dir: horizontal, Pitch: 8, RPerUm: 0.2, ViaOhms: 0.5, ViaEvery: 1},
		{Layer: 8, Dir: vertical, Pitch: 12, RPerUm: 0.1, ViaOhms: 0.25, ViaEvery: 1},
		{Layer: 9, Dir: horizontal, Pitch: 16, RPerUm: 0.05, ViaOhms: 0.25, ViaEvery: 1},
	}
}

// DefaultConfig returns a ready-to-generate configuration for a
// w×h-µm design of the given class.
func DefaultConfig(name string, class Class, w, h int, seed int64) Config {
	cfg := Config{
		Name:           name,
		Class:          class,
		Seed:           seed,
		W:              w,
		H:              h,
		VDD:            1.05,
		Layers:         defaultStack(),
		NumPads:        4,
		CellPitch:      2,
		BackgroundAmps: 5e-5,
		Hotspots:       2,
		HotspotAmps:    4e-4,
	}
	if class == Real {
		cfg.Hotspots = 4
		cfg.HotspotAmps = 6e-4
		cfg.Blockages = 2
	}
	return cfg
}

// Design is a generated power grid.
type Design struct {
	Name    string
	Class   Class
	W, H    int // pixels (µm)
	VDD     float64
	Netlist *spice.Netlist
	// Network is Netlist's network when whoever made the design already
	// built it (serve.DeckDesign does, linting the deck in the same walk);
	// nil means a consumer builds its own. Never edit Netlist under it.
	Network *circuit.Network
	// CurrentBlobs records the hotspot centers (for tests/inspection).
	CurrentBlobs [][2]int
}

// Perturb returns an ECO-edited copy of d: each resistor value is
// rescaled by up to ±5% with probability frac (seeded, so a given
// (design, frac, seed) triple always yields the same edit). Topology,
// current loads, and pads are untouched, which models a strap-width
// engineering change: the perturbed design's conductance matrix
// differs from the original's only in the entries stamped by the
// edited resistors, making the pair a controlled fixture for the
// artifact cache's delta-solve path.
func Perturb(d *Design, frac float64, seed int64) *Design {
	rng := rand.New(rand.NewSource(seed))
	nl := &spice.Netlist{Title: d.Netlist.Title, Elements: slices.Clone(d.Netlist.Elements)}
	changed := 0
	for i := range nl.Elements {
		e := &nl.Elements[i]
		if e.Type != spice.Resistor || rng.Float64() >= frac {
			continue
		}
		e.Value *= 1 + 0.1*(rng.Float64()-0.5)
		changed++
	}
	out := *d
	out.Name = fmt.Sprintf("%s_eco_s%d_n%d", d.Name, seed, changed)
	out.Netlist, out.Network = nl, nil
	return &out
}

// rect is a closed axis-aligned region.
type rect struct{ x0, y0, x1, y1 int }

// Generate synthesizes a design from the configuration. It is
// deterministic for a fixed Config (including Seed).
func Generate(cfg Config) (*Design, error) {
	_, d, err := generate(cfg)
	return d, err
}

// generate is Generate, also returning the builder that named the deck.
func generate(cfg Config) (*builder, *Design, error) {
	if cfg.W < 8 || cfg.H < 8 {
		return nil, nil, fmt.Errorf("pgen: die %dx%d too small", cfg.W, cfg.H)
	}
	if cfg.Layers == nil {
		cfg.Layers = defaultStack()
	}
	if len(cfg.Layers) < 2 {
		return nil, nil, fmt.Errorf("pgen: need at least 2 layers, got %d", len(cfg.Layers))
	}
	if cfg.NumPads < 1 {
		return nil, nil, fmt.Errorf("pgen: need at least one pad")
	}
	cfg.CellPitch = max(cfg.CellPitch, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Macro blockages (lower half of the stack only).
	var blocks []rect
	if cfg.Class == Real {
		for b := 0; b < cfg.Blockages; b++ {
			bw := cfg.W/6 + rng.Intn(cfg.W/6+1)
			bh := cfg.H/6 + rng.Intn(cfg.H/6+1)
			x0 := rng.Intn(cfg.W - bw)
			y0 := rng.Intn(cfg.H - bh)
			blocks = append(blocks, rect{x0, y0, x0 + bw, y0 + bh})
		}
	}
	blockedLow := func(x, y int) bool {
		return slices.ContainsFunc(blocks, func(r rect) bool { return x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1 })
	}

	// Strap coordinates per layer.
	coords := make([][]int, len(cfg.Layers))
	for li, ls := range cfg.Layers {
		if ls.Pitch < 1 {
			return nil, nil, fmt.Errorf("pgen: layer m%d has pitch %d", ls.Layer, ls.Pitch)
		}
		if ls.Dir != horizontal && ls.Dir != vertical {
			return nil, nil, fmt.Errorf("pgen: layer m%d has direction %d", ls.Layer, ls.Dir)
		}
		_, limit := cfg.extents(ls.Dir)
		for c := ls.Pitch / 2; c < limit; c += ls.Pitch {
			cc := c
			if cfg.Class == Real && li < len(cfg.Layers)-1 {
				// Jitter strap positions and occasionally delete one.
				if rng.Float64() < 0.08 {
					continue
				}
				cc += rng.Intn(3) - 1
				if cc < 0 || cc >= limit {
					cc = c
				}
			}
			coords[li] = append(coords[li], cc)
		}
		if len(coords[li]) == 0 {
			return nil, nil, fmt.Errorf("pgen: layer m%d has no straps (pitch %d vs die %dx%d)",
				ls.Layer, ls.Pitch, cfg.W, cfg.H)
		}
		slices.Sort(coords[li])
		coords[li] = slices.Compact(coords[li])
	}
	b := newBuilder(cfg, coords)

	// Vias between adjacent layers: nodes at crossings.
	lowHalf := func(li int) bool { return li < (len(cfg.Layers)+1)/2 }
	for li := 0; li+1 < len(cfg.Layers); li++ {
		lo, hi := cfg.Layers[li], cfg.Layers[li+1]
		if lo.Dir == hi.Dir {
			return nil, nil, fmt.Errorf("pgen: adjacent layers m%d/m%d share direction", lo.Layer, hi.Layer)
		}
		viaEvery := max(lo.ViaEvery, 1)
		k := 0
		for il, cl := range coords[li] {
			for ih, ch := range coords[li+1] {
				x, y := xyFrom(lo.Dir, cl, ch) // lo's strap at cl meets hi's at ch
				k++
				// Real designs thin out the lower vias and lose those under blockages.
				if k%viaEvery != 0 || cfg.Class == Real && lowHalf(li) && (rng.Float64() < 0.1 || blockedLow(x, y)) {
					continue
				}
				b.cards = append(b.cards, card{spice.Resistor, b.node(li, il, ch), b.node(li+1, ih, cl), lo.ViaOhms})
			}
		}
	}

	// Current loads along the bottom layer straps.
	current := newCurrentField(cfg, rng)
	var blobCenters [][2]int
	for _, b := range current.blobs {
		blobCenters = append(blobCenters, [2]int{b.cx, b.cy})
	}
	for s, c := range coords[0] {
		for p := cfg.CellPitch / 2; p < b.grids[0].along; p += cfg.CellPitch {
			x, y := xyFrom(cfg.Layers[0].Dir, c, p)
			if cfg.Class == Real && blockedLow(x, y) {
				continue
			}
			if amps := current.at(float64(x), float64(y)); amps > 0 {
				b.cards = append(b.cards, card{spice.CurrentSource, b.node(0, s, p), ground, amps})
			}
		}
	}

	// Pads on the top layer: choose among its via nodes, listed strap
	// by strap in position order.
	var top []int32
	for _, id := range b.grids[len(cfg.Layers)-1].ids {
		if id != 0 {
			top = append(top, id-1)
		}
	}
	if len(top) == 0 {
		return nil, nil, fmt.Errorf("pgen: top layer has no via nodes to attach pads")
	}
	for _, pi := range choosePads(cfg, rng, len(top)) {
		b.cards = append(b.cards, card{spice.VoltageSource, top[pi], ground, cfg.VDD})
	}

	// Wire segments: connect consecutive nodes along each strap; in
	// Real designs, segments crossing a blockage are cut.
	for li, ls := range cfg.Layers {
		g := &b.grids[li]
		for s, c := range g.coords {
			row := g.ids[s*g.along : (s+1)*g.along]
			prev := -1
			for p, id := range row {
				if id == 0 {
					continue
				}
				if prev >= 0 && !(cfg.Class == Real && lowHalf(li) && blockedLow(xyFrom(ls.Dir, c, (prev+p)/2))) {
					b.cards = append(b.cards, card{spice.Resistor, row[prev] - 1, id - 1, ls.RPerUm * float64(p-prev)})
				}
				prev = p
			}
		}
	}

	nl := b.netlist(fmt.Sprintf("%s (%s, %dx%d um)", cfg.Name, cfg.Class, cfg.W, cfg.H))
	return b, &Design{Name: cfg.Name, Class: cfg.Class, W: cfg.W, H: cfg.H, VDD: cfg.VDD, Netlist: nl, CurrentBlobs: blobCenters}, nil
}

// MaxCards bounds the cards Generate can emit for cfg from the stack's
// pitches alone, before any draw: every ViaEvery-th crossing of
// adjacent straps a via, every cell position on a bottom strap a load,
// at most one wire segment per node, and at most NumPads pads. Jitter,
// thinning, blockages and the prune only take cards away.
func MaxCards(cfg Config) int {
	layers := cfg.Layers
	if layers == nil {
		layers = defaultStack()
	}
	// positions counts step/2, step/2+step, ... below limit.
	positions := func(limit, step int) int {
		step = max(step, 1)
		return max(0, (limit-step/2+step-1)/step)
	}
	vias, loads, prev := 0, 0, 0
	for li, ls := range layers {
		along, across := cfg.extents(ls.Dir)
		straps := positions(across, ls.Pitch)
		if li == 0 {
			loads = straps * positions(along, cfg.CellPitch)
		} else {
			vias += prev * straps / max(layers[li-1].ViaEvery, 1)
		}
		prev = straps
	}
	nodes := 2*vias + loads
	return vias + loads + nodes + min(max(cfg.NumPads, 0), nodes)
}

// ground is the node id that stands for spice.Ground on a card.
const ground = -1

// strapGrid holds the nodes of one stack entry densely: ids[s*along+p]
// is one plus the id of the node at position p along strap s (at
// coords[s]), 0 where strap s has none, so walking a row visits a
// strap's nodes in position order.
type strapGrid struct {
	dir          Direction
	layer, along int
	coords       []int
	ids          []int32
}

// at returns ids' entry at (x, y), 0 when no strap of g runs there.
func (g *strapGrid) at(x, y int) int32 {
	c, p := y, x
	if g.dir == vertical {
		c, p = x, y
	}
	if s, ok := slices.BinarySearch(g.coords, c); ok {
		return g.ids[s*g.along+p]
	}
	return 0
}

// card is a deck card before names exist. Its element number is its
// index plus one, fixed at creation, so a pruned deck keeps gaps.
type card struct {
	typ  spice.ElemType
	a, b int32 // node ids; ground for spice.Ground
	v    float64
}

// builder accumulates a design's nodes and cards as integers.
type builder struct {
	grids []strapGrid
	twins [][]int // per entry, the other entries with its layer number
	nodes []spice.Node
	cards []card
}

func newBuilder(cfg Config, coords [][]int) *builder {
	n := len(cfg.Layers)
	b := &builder{grids: make([]strapGrid, n), twins: make([][]int, n), cards: make([]card, 0, MaxCards(cfg))}
	for li, ls := range cfg.Layers {
		along, _ := cfg.extents(ls.Dir)
		b.grids[li] = strapGrid{ls.Dir, ls.Layer, along, coords[li], make([]int32, len(coords[li])*along)}
		for lj, other := range cfg.Layers {
			if lj != li && other.Layer == ls.Layer {
				b.twins[li] = append(b.twins[li], lj)
			}
		}
	}
	return b
}

// node returns the id of the node at position p along strap s of stack
// entry li, making it on first use. Entries that share a layer number
// share their nodes at a position, as the nodes' names do.
func (b *builder) node(li, s, p int) int32 {
	g := &b.grids[li]
	if i := s*g.along + p; g.ids[i] == 0 {
		x, y := xyFrom(g.dir, g.coords[s], p)
		var id int32
		for _, lj := range b.twins[li] {
			if id = b.grids[lj].at(x, y); id != 0 {
				break
			}
		}
		if id == 0 {
			b.nodes = append(b.nodes, spice.Node{Net: 1, Layer: g.layer, X: x, Y: y})
			id = int32(len(b.nodes))
		}
		g.ids[i] = id
	}
	return g.ids[s*g.along+p] - 1
}

// powered marks the nodes with a resistive path to a pad. The
// Real-design strap/via thinning and blockage cuts can orphan small
// islands of the bottom layers; dropping their loads (a macro's
// internal grid is not modeled anyway) keeps the MNA system
// non-singular.
func (b *builder) powered() []bool {
	n := len(b.nodes)
	start := make([]int32, n+1) // resistor adjacency, compressed by node
	for _, c := range b.cards {
		if c.typ == spice.Resistor {
			start[c.a+1]++
			start[c.b+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	adj, next := make([]int32, start[n]), slices.Clone(start[:n])
	for _, c := range b.cards {
		if c.typ == spice.Resistor {
			adj[next[c.a]] = c.b
			next[c.a]++
			adj[next[c.b]] = c.a
			next[c.b]++
		}
	}
	reached, queue := make([]bool, n), next[:0] // next is spent; the queue reuses it
	for _, c := range b.cards {
		if c.typ == spice.VoltageSource && !reached[c.a] {
			reached[c.a] = true
			queue = append(queue, c.a)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, o := range adj[start[queue[i]]:start[queue[i]+1]] {
			if !reached[o] {
				reached[o] = true
				queue = append(queue, o)
			}
		}
	}
	return reached
}

// netlist drops the cards on unpowered nodes and names the rest. Every
// kept node's and card's name is written once into one string, which
// the elements slice.
func (b *builder) netlist(title string) *spice.Netlist {
	reached := b.powered()
	kept := func(c card) bool {
		return (c.a == ground || reached[c.a]) && (c.b == ground || reached[c.b])
	}
	buf := make([]byte, 0, 16*len(b.nodes)+8*len(b.cards))
	span := make([][2]int32, len(b.nodes)) // a reached node's name in buf
	for id, n := range b.nodes {
		if reached[id] {
			span[id][0] = int32(len(buf))
			buf = n.Append(buf)
			span[id][1] = int32(len(buf))
		}
	}
	at, ends := len(buf), make([]int32, 0, len(b.cards)) // the kept cards' names follow
	for i, c := range b.cards {
		if kept(c) {
			buf = strconv.AppendInt(append(buf, c.typ.String()...), int64(i+1), 10)
			ends = append(ends, int32(len(buf)))
		}
	}
	text := string(buf)
	name := func(id int32) string {
		if id == ground {
			return spice.Ground
		}
		return text[span[id][0]:span[id][1]]
	}
	nl := &spice.Netlist{Title: title, Elements: make([]spice.Element, 0, len(ends))}
	for _, c := range b.cards {
		if kept(c) {
			end := int(ends[len(nl.Elements)])
			nl.Elements = append(nl.Elements, spice.Element{
				Type: c.typ, Name: text[at:end], NodeA: name(c.a), NodeB: name(c.b), Value: c.v,
			})
			at = end
		}
	}
	return nl
}

// extents returns how far a strap of direction d runs across the die
// and the extent its layer's straps are spread over.
func (c Config) extents(d Direction) (along, across int) {
	if d == vertical {
		return c.H, c.W
	}
	return c.W, c.H
}

// xyFrom reconstructs (x, y) from a strap coordinate and position.
func xyFrom(d Direction, coord, pos int) (int, int) {
	if d == horizontal {
		return pos, coord
	}
	return coord, pos
}

// choosePads selects pad node indices among nTop candidates: a regular
// spread for Fake designs, an edge-biased irregular pick for Real ones.
func choosePads(cfg Config, rng *rand.Rand, nTop int) []int {
	n := min(cfg.NumPads, nTop)
	idx := make([]int, 0, n)
	if cfg.Class == Fake {
		for i := 0; i < n; i++ {
			idx = append(idx, i*(nTop-1)/max(1, n-1))
		}
	} else {
		seen := map[int]bool{}
		for len(idx) < n {
			i := rng.Intn(nTop)
			if !seen[i] {
				seen[i] = true
				idx = append(idx, i)
			}
		}
	}
	// Deduplicate (regular spread can repeat when n > distinct slots).
	seen := map[int]bool{}
	out := idx[:0]
	for _, i := range idx {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// currentField is a background + Gaussian blob current density model.
type currentField struct {
	background float64
	blobs      []blob
}

type blob struct {
	cx, cy int
	amp    float64
	sigma  float64
}

func newCurrentField(cfg Config, rng *rand.Rand) *currentField {
	f := &currentField{background: cfg.BackgroundAmps}
	for i := 0; i < cfg.Hotspots; i++ {
		sigma := float64(min(cfg.W, cfg.H)) * (0.06 + 0.10*rng.Float64())
		if cfg.Class == Real {
			sigma *= 0.7 // sharper hotspots
		}
		f.blobs = append(f.blobs, blob{
			cx:    rng.Intn(cfg.W),
			cy:    rng.Intn(cfg.H),
			amp:   cfg.HotspotAmps * (0.5 + rng.Float64()),
			sigma: sigma,
		})
	}
	return f
}

func (f *currentField) at(x, y float64) float64 {
	v := f.background
	for _, b := range f.blobs {
		dx, dy := x-float64(b.cx), y-float64(b.cy)
		v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
	}
	return v
}

// DualRail returns a deck containing the design's VDD net (net 1)
// plus a mirrored VSS return net (net 2) with identical geometry:
// pads at 0 V and the same per-cell currents flowing back into the
// ground rail. Together with circuit.AnalyzeNets this enables
// simultaneous IR-drop and ground-bounce analysis.
func (d *Design) DualRail() *spice.Netlist {
	out := &spice.Netlist{Title: d.Netlist.Title + " (dual rail)"}
	out.Elements = append(out.Elements, d.Netlist.Elements...)
	mirror := func(name string) string {
		if name == spice.Ground {
			return name
		}
		n, err := spice.ParseNode(name)
		if err != nil {
			return name
		}
		n.Net = 2
		return n.String()
	}
	for _, e := range d.Netlist.Elements {
		m := e
		m.Name = e.Name + "v"
		m.NodeA = mirror(e.NodeA)
		m.NodeB = mirror(e.NodeB)
		if m.Type == spice.VoltageSource {
			m.Value = 0 // VSS pads
		}
		out.Elements = append(out.Elements, m)
	}
	return out
}
