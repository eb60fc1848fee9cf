package features

// The typed heap against the container/heap version it replaced, which
// lives on here as the oracle.

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/pgen"
)

type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func refDijkstra(adj [][]edgeTo, src int) []float64 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := &refPQ{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if nd := it.dist + e.ohms; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(q, pqItem{e.to, nd})
			}
		}
	}
	return dist
}

// TestTypedHeapPopsInContainerHeapOrder: under a random mix of pushes
// and pops over few distinct keys — so ties are everywhere and only the
// sift order decides between them — both heaps hold the same array
// after every operation.
func TestTypedHeapPopsInContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var q pq
	ref := &refPQ{}
	for op := 0; op < 20000; op++ {
		if len(q) == 0 || rng.Intn(5) < 3 {
			it := pqItem{node: op, dist: float64(rng.Intn(8))}
			q.push(it)
			heap.Push(ref, it)
		} else if got, want := q.pop(), heap.Pop(ref).(pqItem); got != want {
			t.Fatalf("op %d: popped %+v, container/heap pops %+v", op, got, want)
		}
		if len(q) != ref.Len() {
			t.Fatalf("op %d: %d items, container/heap holds %d", op, len(q), ref.Len())
		}
		for i := range q {
			if q[i] != (*ref)[i] {
				t.Fatalf("op %d: slot %d holds %+v, container/heap %+v", op, i, q[i], (*ref)[i])
			}
		}
	}
}

func adjacency(nw *circuit.Network) [][]edgeTo {
	adj := make([][]edgeTo, nw.NumNodes())
	for _, r := range nw.Resistors {
		adj[r.A] = append(adj[r.A], edgeTo{r.B, r.Ohms})
		adj[r.B] = append(adj[r.B], edgeTo{r.A, r.Ohms})
	}
	return adj
}

// TestDijkstraMatchesContainerHeap: bit-equal distances from every pad
// of a Real and a Fake design, and on a unit-resistance mesh where most
// nodes are reached by many equal-length paths — with dist and the
// heap's storage reused from source to source.
func TestDijkstraMatchesContainerHeap(t *testing.T) {
	graphs := map[string][][]edgeTo{}
	srcs := map[string][]int{}
	for name, class := range map[string]pgen.Class{"real": pgen.Real, "fake": pgen.Fake} {
		d, err := pgen.Generate(pgen.DefaultConfig(name, class, 48, 48, 9))
		if err != nil {
			t.Fatal(err)
		}
		nw, err := circuit.FromNetlist(d.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = adjacency(nw)
		for _, p := range nw.Pads {
			srcs[name] = append(srcs[name], p.Node)
		}
	}
	const side = 17
	mesh := make([][]edgeTo, side*side+1) // the last node is unreachable
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			i := y*side + x
			if x+1 < side {
				mesh[i], mesh[i+1] = append(mesh[i], edgeTo{i + 1, 1}), append(mesh[i+1], edgeTo{i, 1})
			}
			if y+1 < side {
				mesh[i], mesh[i+side] = append(mesh[i], edgeTo{i + side, 1}), append(mesh[i+side], edgeTo{i, 1})
			}
		}
	}
	graphs["mesh"], srcs["mesh"] = mesh, []int{0, side * side / 2, side*side - 1}

	for name, adj := range graphs {
		dist := make([]float64, len(adj))
		var q pq
		for _, src := range srcs[name] {
			q = dijkstra(adj, src, dist, q)
			want := refDijkstra(adj, src)
			for i := range want {
				if math.Float64bits(dist[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s from %d: dist[%d] = %v, container/heap version %v", name, src, i, dist[i], want[i])
				}
			}
			if len(q) != 0 {
				t.Fatalf("%s from %d: dijkstra returned a heap holding %d items", name, src, len(q))
			}
		}
	}
}
