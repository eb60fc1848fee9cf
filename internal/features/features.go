// Package features builds the image-like inputs of the ML stage: the
// hierarchical numerical maps rasterized from a rough solver solution
// (one per metal layer) and the structural maps extracted from the
// netlist alone — per-layer current maps, the effective distance map
// to the pads, the PDN density map, the resistance map, and the
// shortest-path resistance map. It also rasterizes golden labels.
//
// Every map is H×W with one pixel per 1µm×1µm tile; node coordinates
// are clamped into the grid.
package features

import (
	"fmt"
	"math"

	"irfusion/internal/circuit"
	"irfusion/internal/grid"
)

// Set is an ordered collection of named feature maps, ready to be
// stacked into the channel dimension of a model input.
type Set struct {
	Names []string
	Maps  []*grid.Map
}

// Add appends a named map.
func (s *Set) Add(name string, m *grid.Map) {
	s.Names = append(s.Names, name)
	s.Maps = append(s.Maps, m)
}

// Append concatenates another set.
func (s *Set) Append(o *Set) {
	s.Names = append(s.Names, o.Names...)
	s.Maps = append(s.Maps, o.Maps...)
}

// Channels returns the number of maps.
func (s *Set) Channels() int { return len(s.Maps) }

// Resize returns a new set with every map resampled to h×w.
func (s *Set) Resize(h, w int) *Set {
	out := &Set{}
	for i, m := range s.Maps {
		out.Add(s.Names[i], m.Resize(h, w))
	}
	return out
}

// clampPixel maps a node coordinate to a pixel index.
func clampPixel(c, limit int) int {
	if c < 0 {
		return 0
	}
	if c >= limit {
		return limit - 1
	}
	return c
}

// rasterizeNodes averages per-node values into pixels; pixels without
// nodes stay at fill.
func rasterizeNodes(nw *circuit.Network, pick func(node int) (float64, bool), h, w int, fill float64) *grid.Map {
	sum := grid.New(h, w)
	cnt := grid.New(h, w)
	for i := 0; i < nw.NumNodes(); i++ {
		if !nw.HasMeta[i] {
			continue
		}
		v, ok := pick(i)
		if !ok {
			continue
		}
		x := clampPixel(nw.Meta[i].X, w)
		y := clampPixel(nw.Meta[i].Y, h)
		sum.Add(y, x, v)
		cnt.Add(y, x, 1)
	}
	out := grid.New(h, w)
	for i := range out.Data {
		if cnt.Data[i] > 0 {
			out.Data[i] = sum.Data[i] / cnt.Data[i]
		} else {
			out.Data[i] = fill
		}
	}
	return out
}

// NumericalFeatures rasterizes a full (per-network-node) drop vector
// into one map per metal layer — the hierarchical numerical features
// of the paper. fullDrops must come from System.FullDrops.
func NumericalFeatures(nw *circuit.Network, fullDrops []float64, h, w int) *Set {
	s := &Set{}
	for _, l := range nw.Layers() {
		s.Add(fmt.Sprintf("num_drop_m%d", l), rasterizeNodes(nw, func(n int) (float64, bool) {
			if nw.Meta[n].Layer != l {
				return 0, false
			}
			return fullDrops[n], true
		}, h, w, 0))
	}
	return s
}

// GoldenMap rasterizes the converged drops of the bottom-layer (cell)
// nodes — the prediction target.
func GoldenMap(nw *circuit.Network, fullDrops []float64, h, w int) *grid.Map {
	layers := nw.Layers()
	if len(layers) == 0 {
		return grid.New(h, w)
	}
	bottom := layers[0]
	return rasterizeNodes(nw, func(n int) (float64, bool) {
		if nw.Meta[n].Layer != bottom {
			return 0, false
		}
		return fullDrops[n], true
	}, h, w, 0)
}

// StructureFeatures extracts the solver-independent maps from the
// network topology: per-layer current maps (load current allocated to
// layers in proportion to their conductance contribution), effective
// distance, PDN density, resistance, and shortest-path resistance.
func StructureFeatures(nw *circuit.Network, h, w int) *Set {
	s := CurrentMaps(nw, h, w)
	s.Add("eff_dist", EffectiveDistanceMap(nw, h, w))
	s.Add("pdn_density", DensityMap(nw, h, w))
	s.Add("resistance", ResistanceMap(nw, h, w))
	s.Add("sp_resistance", ShortestPathResistanceMap(nw, h, w))
	return s
}

// CurrentMaps returns the per-layer current maps (current_m<layer>):
// the load current raster allocated to each metal layer in proportion
// to its conductance contribution.
func CurrentMaps(nw *circuit.Network, h, w int) *Set {
	s := &Set{}
	layers := nw.Layers()
	// Load current raster (bottom-layer attachment points).
	loadMap := grid.New(h, w)
	for _, l := range nw.Loads {
		if !nw.HasMeta[l.Node] {
			continue
		}
		x := clampPixel(nw.Meta[l.Node].X, w)
		y := clampPixel(nw.Meta[l.Node].Y, h)
		loadMap.Add(y, x, l.Amps)
	}

	// Per-layer conductance totals for the allocation weights.
	condByLayer := map[int]float64{}
	total := 0.0
	for _, r := range nw.Resistors {
		if r.IsVia || !nw.HasMeta[r.A] {
			continue
		}
		g := 1 / r.Ohms
		condByLayer[nw.Meta[r.A].Layer] += g
		total += g
	}
	for _, layer := range layers {
		share := 0.0
		if total > 0 {
			share = condByLayer[layer] / total
		}
		s.Add(fmt.Sprintf("current_m%d", layer), loadMap.Clone().Scale(share))
	}
	return s
}

// EffectiveDistanceMap computes, per pixel, the reciprocal of the sum
// of reciprocals of Euclidean distances to every pad — small values
// mean good pad proximity.
func EffectiveDistanceMap(nw *circuit.Network, h, w int) *grid.Map {
	type pt struct{ x, y float64 }
	var pads []pt
	for _, p := range nw.Pads {
		if nw.HasMeta[p.Node] {
			pads = append(pads, pt{float64(nw.Meta[p.Node].X), float64(nw.Meta[p.Node].Y)})
		}
	}
	out := grid.New(h, w)
	if len(pads) == 0 {
		return out
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0.0
			for _, p := range pads {
				dx, dy := float64(x)-p.x, float64(y)-p.y
				d := math.Sqrt(dx*dx + dy*dy)
				if d < 1 {
					d = 1
				}
				sum += 1 / d
			}
			out.Set(y, x, 1/sum)
		}
	}
	return out
}

// DensityMap rasterizes PDN wire presence: each wire segment deposits
// its pixel-overlap count, giving an average strap density per tile.
func DensityMap(nw *circuit.Network, h, w int) *grid.Map {
	out := grid.New(h, w)
	forEachWirePixel(nw, h, w, func(y, x int, r circuit.Resistor, frac float64) {
		out.Add(y, x, frac)
	})
	return out
}

// ResistanceMap distributes each resistor's resistance across the
// pixels it overlaps.
func ResistanceMap(nw *circuit.Network, h, w int) *grid.Map {
	out := grid.New(h, w)
	forEachWirePixel(nw, h, w, func(y, x int, r circuit.Resistor, frac float64) {
		out.Add(y, x, r.Ohms*frac)
	})
	return out
}

// forEachWirePixel walks the pixels covered by each resistor. Straps
// are axis-aligned segments; vias are points. frac is the fraction of
// the wire attributed to the pixel.
func forEachWirePixel(nw *circuit.Network, h, w int, visit func(y, x int, r circuit.Resistor, frac float64)) {
	for _, r := range nw.Resistors {
		if !nw.HasMeta[r.A] || !nw.HasMeta[r.B] {
			continue
		}
		ax, ay := nw.Meta[r.A].X, nw.Meta[r.A].Y
		bx, by := nw.Meta[r.B].X, nw.Meta[r.B].Y
		if ax == bx && ay == by { // via (or zero-length)
			visit(clampPixel(ay, h), clampPixel(ax, w), r, 1)
			continue
		}
		// Walk the major axis.
		steps := abs(bx-ax) + abs(by-ay)
		if steps == 0 {
			steps = 1
		}
		frac := 1 / float64(steps+1)
		for s := 0; s <= steps; s++ {
			x := ax + (bx-ax)*s/steps
			y := ay + (by-ay)*s/steps
			visit(clampPixel(y, h), clampPixel(x, w), r, frac)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ShortestPathResistanceMap computes, per node, the average over pads
// of the minimum cumulative resistance from the node to that pad
// (Dijkstra per pad), then rasterizes the node values.
func ShortestPathResistanceMap(nw *circuit.Network, h, w int) *grid.Map {
	n := nw.NumNodes()
	adj := make([][]edgeTo, n)
	for _, r := range nw.Resistors {
		adj[r.A] = append(adj[r.A], edgeTo{r.B, r.Ohms})
		adj[r.B] = append(adj[r.B], edgeTo{r.A, r.Ohms})
	}
	acc, dist := make([]float64, n), make([]float64, n)
	var q pq
	cnt := 0
	for _, p := range nw.Pads {
		q = dijkstra(adj, p.Node, dist, q)
		for i, d := range dist {
			if !math.IsInf(d, 1) {
				acc[i] += d
			}
		}
		cnt++
	}
	if cnt > 0 {
		for i := range acc {
			acc[i] /= float64(cnt)
		}
	}
	return rasterizeNodes(nw, func(node int) (float64, bool) {
		return acc[node], true
	}, h, w, 0)
}

type edgeTo struct {
	to   int
	ohms float64
}

type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist. up and down sift exactly as
// container/heap's do — same comparisons, same swaps — so items leave
// in the order they did when the heap was boxed through that package,
// equal distances included.
type pq []pqItem

//irfusion:hotpath
func (q pq) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

//irfusion:hotpath
func (q pq) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pq) pop() pqItem {
	old := *q
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*q = old[:n]
	return old[n]
}

// dijkstra fills dist with the shortest-path resistance from src to
// every node (+Inf where unreachable), working in q's storage, which it
// returns emptied for the next source.
func dijkstra(adj [][]edgeTo, src int, dist []float64, q pq) pq {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q = append(q[:0], pqItem{src, 0})
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if nd := it.dist + e.ohms; nd < dist[e.to] {
				dist[e.to] = nd
				q.push(pqItem{e.to, nd})
			}
		}
	}
	return q
}

// Filter returns a new set containing only the maps whose name
// satisfies keep, preserving order.
func (s *Set) Filter(keep func(name string) bool) *Set {
	out := &Set{}
	for i, name := range s.Names {
		if keep(name) {
			out.Add(name, s.Maps[i])
		}
	}
	return out
}
