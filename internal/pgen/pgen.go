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
	"sort"

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
	Layer    int       // metal layer number (m1, m4, ...)
	Dir      Direction // strap direction
	Pitch    int       // strap pitch in µm
	RPerUm   float64   // wire resistance in Ω/µm
	ViaOhms  float64   // resistance of a via up to the next layer
	ViaEvery int       // populate every k-th crossing with a via (≥1)
}

// Config parameterizes generation.
type Config struct {
	Name  string
	Class Class
	Seed  int64
	// W, H are the die dimensions in µm (== pixels).
	W, H int
	// VDD is the pad voltage.
	VDD float64
	// Layers is the stack, bottom first. If nil, defaultStack is used.
	Layers []LayerSpec
	// NumPads is the number of VDD pads on the top layer.
	NumPads int
	// CellPitch is the load attachment pitch along m1 straps (µm).
	CellPitch int
	// BackgroundAmps is the per-cell background current draw.
	BackgroundAmps float64
	// Hotspots is the number of Gaussian current blobs.
	Hotspots int
	// HotspotAmps is the peak extra per-cell current inside a blob.
	HotspotAmps float64
	// Blockages is the number of macro cut-outs (Real designs).
	Blockages int
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
	nl := &spice.Netlist{
		Title:    d.Netlist.Title,
		Elements: append([]spice.Element(nil), d.Netlist.Elements...),
	}
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

func (r rect) contains(x, y int) bool {
	return x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1
}

// Generate synthesizes a design from the configuration. It is
// deterministic for a fixed Config (including Seed).
func Generate(cfg Config) (*Design, error) {
	if cfg.W < 8 || cfg.H < 8 {
		return nil, fmt.Errorf("pgen: die %dx%d too small", cfg.W, cfg.H)
	}
	if cfg.Layers == nil {
		cfg.Layers = defaultStack()
	}
	if len(cfg.Layers) < 2 {
		return nil, fmt.Errorf("pgen: need at least 2 layers, got %d", len(cfg.Layers))
	}
	if cfg.NumPads < 1 {
		return nil, fmt.Errorf("pgen: need at least one pad")
	}
	if cfg.CellPitch < 1 {
		cfg.CellPitch = 1
	}
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
		for _, r := range blocks {
			if r.contains(x, y) {
				return true
			}
		}
		return false
	}

	// Strap coordinates per layer.
	coords := make([][]int, len(cfg.Layers))
	for li, ls := range cfg.Layers {
		if ls.Pitch < 1 {
			return nil, fmt.Errorf("pgen: layer m%d has pitch %d", ls.Layer, ls.Pitch)
		}
		limit := cfg.H
		if ls.Dir == vertical {
			limit = cfg.W
		}
		offset := ls.Pitch / 2
		for c := offset; c < limit; c += ls.Pitch {
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
			return nil, fmt.Errorf("pgen: layer m%d has no straps (pitch %d vs die %dx%d)",
				ls.Layer, ls.Pitch, cfg.W, cfg.H)
		}
		coords[li] = dedupeSorted(coords[li])
	}

	// nodesOnLayer[li] collects the x/y positions of nodes per strap.
	// key: strap coordinate; values: sorted positions along the strap.
	type strapKey struct{ li, coord int }
	strapNodes := make(map[strapKey]map[int]bool)
	addNode := func(li, coord, pos int) {
		k := strapKey{li, coord}
		if strapNodes[k] == nil {
			strapNodes[k] = make(map[int]bool)
		}
		strapNodes[k][pos] = true
	}
	nodeName := func(li, x, y int) string {
		return spice.Node{Net: 1, Layer: cfg.Layers[li].Layer, X: x, Y: y}.String()
	}

	nl := &spice.Netlist{Title: fmt.Sprintf("%s (%s, %dx%d um)", cfg.Name, cfg.Class, cfg.W, cfg.H)}
	elemID := 0
	addR := func(a, b string, ohms float64) {
		elemID++
		nl.Elements = append(nl.Elements, spice.Element{
			Type: spice.Resistor, Name: fmt.Sprintf("R%d", elemID),
			NodeA: a, NodeB: b, Value: ohms,
		})
	}
	addI := func(a string, amps float64) {
		elemID++
		nl.Elements = append(nl.Elements, spice.Element{
			Type: spice.CurrentSource, Name: fmt.Sprintf("I%d", elemID),
			NodeA: a, NodeB: spice.Ground, Value: amps,
		})
	}
	addV := func(a string) {
		elemID++
		nl.Elements = append(nl.Elements, spice.Element{
			Type: spice.VoltageSource, Name: fmt.Sprintf("V%d", elemID),
			NodeA: a, NodeB: spice.Ground, Value: cfg.VDD,
		})
	}

	// Vias between adjacent layers: nodes at crossings.
	lowHalf := func(li int) bool { return li < (len(cfg.Layers)+1)/2 }
	for li := 0; li+1 < len(cfg.Layers); li++ {
		lo, hi := cfg.Layers[li], cfg.Layers[li+1]
		if lo.Dir == hi.Dir {
			return nil, fmt.Errorf("pgen: adjacent layers m%d/m%d share direction", lo.Layer, hi.Layer)
		}
		viaEvery := lo.ViaEvery
		if viaEvery < 1 {
			viaEvery = 1
		}
		k := 0
		for _, cl := range coords[li] {
			for _, ch := range coords[li+1] {
				var x, y int
				if lo.Dir == horizontal { // lo at y=cl, hi vertical at x=ch
					x, y = ch, cl
				} else { // lo vertical at x=cl, hi horizontal at y=ch
					x, y = cl, ch
				}
				k++
				if k%viaEvery != 0 {
					continue
				}
				if cfg.Class == Real {
					// Thin out vias on lower layers outside pads.
					if lowHalf(li) && rng.Float64() < 0.1 {
						continue
					}
					if lowHalf(li) && blockedLow(x, y) {
						continue
					}
				}
				addNode(li, cl, posAlong(lo.Dir, x, y))
				addNode(li+1, ch, posAlong(hi.Dir, x, y))
				addR(nodeName(li, x, y), nodeName(li+1, x, y), lo.ViaOhms)
			}
		}
	}

	// Current loads along the bottom layer straps.
	bot := cfg.Layers[0]
	current := newCurrentField(cfg, rng)
	var blobCenters [][2]int
	for _, b := range current.blobs {
		blobCenters = append(blobCenters, [2]int{b.cx, b.cy})
	}
	for _, c := range coords[0] {
		limit := cfg.W
		if bot.Dir == vertical {
			limit = cfg.H
		}
		for p := cfg.CellPitch / 2; p < limit; p += cfg.CellPitch {
			var x, y int
			if bot.Dir == horizontal {
				x, y = p, c
			} else {
				x, y = c, p
			}
			if cfg.Class == Real && blockedLow(x, y) {
				continue
			}
			amps := current.at(float64(x), float64(y))
			if amps <= 0 {
				continue
			}
			addNode(0, c, posAlong(bot.Dir, x, y))
			addI(nodeName(0, x, y), amps)
		}
	}

	// Pads on the top layer: choose existing via nodes.
	topLi := len(cfg.Layers) - 1
	var topNodes [][2]int // (coord, pos)
	for _, c := range coords[topLi] {
		for p := range strapNodes[strapKey{topLi, c}] {
			topNodes = append(topNodes, [2]int{c, p})
		}
	}
	if len(topNodes) == 0 {
		return nil, fmt.Errorf("pgen: top layer has no via nodes to attach pads")
	}
	// Sort for determinism (map iteration order is random).
	sortPairs(topNodes)
	padIdx := choosePads(cfg, rng, topNodes)
	for _, pi := range padIdx {
		c, p := topNodes[pi][0], topNodes[pi][1]
		x, y := xyFrom(cfg.Layers[topLi].Dir, c, p)
		addV(nodeName(topLi, x, y))
	}

	// Wire segments: connect consecutive nodes along each strap.
	for li, ls := range cfg.Layers {
		for _, c := range coords[li] {
			nodes := strapNodes[strapKey{li, c}]
			if len(nodes) < 2 {
				continue
			}
			ps := make([]int, 0, len(nodes))
			for p := range nodes {
				ps = append(ps, p)
			}
			sortInts(ps)
			for i := 0; i+1 < len(ps); i++ {
				x0, y0 := xyFrom(ls.Dir, c, ps[i])
				x1, y1 := xyFrom(ls.Dir, c, ps[i+1])
				dist := float64(ps[i+1] - ps[i])
				if cfg.Class == Real && lowHalf(li) {
					// Segments crossing a blockage are cut.
					mx, my := (x0+x1)/2, (y0+y1)/2
					if blockedLow(mx, my) {
						continue
					}
				}
				addR(nodeName(li, x0, y0), nodeName(li, x1, y1), ls.RPerUm*dist)
			}
		}
	}

	pruneFloating(nl)

	return &Design{
		Name:         cfg.Name,
		Class:        cfg.Class,
		W:            cfg.W,
		H:            cfg.H,
		VDD:          cfg.VDD,
		Netlist:      nl,
		CurrentBlobs: blobCenters,
	}, nil
}

// pruneFloating removes elements attached to nodes without a resistive
// path to any pad. The Real-design strap/via thinning and blockage
// cuts can orphan small islands of the bottom layers; dropping their
// loads (a macro's internal grid is not modeled anyway) keeps the MNA
// system non-singular.
func pruneFloating(nl *spice.Netlist) {
	idx := map[string]int{}
	intern := func(s string) int {
		if i, ok := idx[s]; ok {
			return i
		}
		i := len(idx)
		idx[s] = i
		return i
	}
	type edge struct{ a, b int }
	var edges []edge
	var seeds []int
	for _, e := range nl.Elements {
		switch e.Type {
		case spice.Resistor:
			edges = append(edges, edge{intern(e.NodeA), intern(e.NodeB)})
		case spice.VoltageSource:
			n := e.NodeA
			if n == spice.Ground {
				n = e.NodeB
			}
			seeds = append(seeds, intern(n))
		}
	}
	adj := make([][]int, len(idx))
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e.b)
		adj[e.b] = append(adj[e.b], e.a)
	}
	reached := make([]bool, len(idx))
	queue := []int{}
	for _, s := range seeds {
		if !reached[s] {
			reached[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, o := range adj[v] {
			if !reached[o] {
				reached[o] = true
				queue = append(queue, o)
			}
		}
	}
	ok := func(name string) bool {
		if name == spice.Ground {
			return true
		}
		i, exists := idx[name]
		return exists && reached[i]
	}
	kept := nl.Elements[:0]
	for _, e := range nl.Elements {
		if ok(e.NodeA) && ok(e.NodeB) {
			kept = append(kept, e)
		}
	}
	nl.Elements = kept
}

// dedupeSorted sorts v ascending and removes duplicates in place.
func dedupeSorted(v []int) []int {
	sortInts(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// posAlong returns the coordinate that varies along a strap.
func posAlong(d Direction, x, y int) int {
	if d == horizontal {
		return x
	}
	return y
}

// xyFrom reconstructs (x, y) from a strap coordinate and position.
func xyFrom(d Direction, coord, pos int) (int, int) {
	if d == horizontal {
		return pos, coord
	}
	return coord, pos
}

func sortInts(v []int) { sort.Ints(v) }

func sortPairs(v [][2]int) {
	sort.Slice(v, func(i, j int) bool {
		if v[i][0] != v[j][0] {
			return v[i][0] < v[j][0]
		}
		return v[i][1] < v[j][1]
	})
}

// choosePads selects pad node indices: a regular spread for Fake
// designs, an edge-biased irregular pick for Real ones.
func choosePads(cfg Config, rng *rand.Rand, top [][2]int) []int {
	n := cfg.NumPads
	if n > len(top) {
		n = len(top)
	}
	idx := make([]int, 0, n)
	if cfg.Class == Fake {
		for i := 0; i < n; i++ {
			idx = append(idx, i*(len(top)-1)/max(1, n-1))
		}
	} else {
		seen := map[int]bool{}
		for len(idx) < n {
			i := rng.Intn(len(top))
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
