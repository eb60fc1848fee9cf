package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Constants of the load generator. They were fixed on the reference
// sandbox (2 cores) and are recorded with every run, never derived at
// run time: the same list must be sent on both sides of a comparison.
const (
	// clients is the number of client goroutines, each with its own
	// keep-alive connection: one per core of the reference sandbox.
	clients = 2
	// headroom sizes a closed-loop request list beyond what the seed
	// commit serves in the window, so a faster commit still finds
	// distinct requests; a list that runs out ends the window early.
	headroom = 1.3
	// ecoFraction is the share of resistors one ECO edit rescales.
	ecoFraction = 0.01
	// ecoBases is the number of base designs of eco_gateway, all solved
	// in warm-up. Twelve average the per-design cost spread well enough
	// for the window to repeat between seeds.
	ecoBases = 12
	// ecoSettle keeps an exact repeat from naming a deck that may still
	// be in flight: only decks sent this many positions earlier (or in
	// warm-up) are repeated, so every repeat is a response-cache hit.
	ecoSettle = 16
	// warmRequests is the number of warm-up requests drawn from a pool
	// separate from the window's list (eco_gateway warms with its bases
	// instead).
	warmRequests = 4
	// keepPerClass bounds the response bodies kept for the answer check;
	// sampleSize of them are verified.
	keepPerClass = 32
	sampleSize   = 8
	// trainSeed seeds the training set of the fused model, the same for
	// every -seed so that every run serves the same weights.
	trainSeed = 4242
	// quickList is the list length of every workload under -quick.
	quickList = 20
)

// ecoPattern is the fixed interleave of eco_gateway, one block of ten:
// true marks a new ECO variant, false an exact repeat. 3 in 10 are
// variants, so the median latency falls in the repeat class and the
// 90th percentile in the variant class.
var ecoPattern = [10]bool{false, true, false, false, true, false, false, false, true, false}

// A workload is one traffic mix against one server configuration.
type workload struct {
	name, why string
	die       int     // die size in µm (== pixels of the returned map)
	quickDie  int     // die size under -quick
	mode      string  // analysis mode of every request
	shards    int     // analysis servers; more than one puts a gateway in front
	journaled bool    // write-ahead journal on, fsync after every record
	eco       bool    // repeats and ECO variants of a few base designs
	rps       float64 // closed loop: throughput of the seed commit on the reference sandbox, sizes the list; open loop: the arrival rate
	open      bool    // open loop: seeded arrivals at rps, timed from their due time
	sloMS     float64 // latency limit of slo_share: 2.5x the unloaded median round trip on the reference sandbox
	inclMap   bool    // include_map
	omitMan   bool    // omit_manifest
}

// modelResolution is the raster the fused model is trained and served
// at; dies of any size are rasterized to it.
func modelResolution(quick bool) int {
	if quick {
		return 32
	}
	return 64
}

var workloads = []workload{
	{
		name: "cold_numerical", die: 128, quickDie: 48, mode: modeNumerical, shards: 1,
		rps: 31, sloMS: 125, inclMap: true, omitMan: true,
		why: "distinct decks solved to convergence: every cache misses, so parse, assembly, AMG setup and PCG do the work",
	},
	{
		name: "eco_gateway", die: 128, quickDie: 48, mode: modeNumerical, shards: 2, eco: true,
		rps: 42, sloMS: 150,
		why: "70% exact repeats and 30% ECO variants through the gateway: parse, fingerprint, cache and routing dominate",
	},
	{
		name: "fused_small", die: 64, quickDie: 32, mode: modeFused, shards: 1,
		rps: 23, sloMS: 130, inclMap: true,
		why: "fused mode on small dies: features and serialized model inference do the work, the solver little",
	},
	{
		name: "durable_open", die: 64, quickDie: 48, mode: modeNumerical, shards: 1, journaled: true,
		rps: 35, open: true, sloMS: 46, inclMap: true, omitMan: true,
		why: "cold decks arriving on a schedule at about half of capacity with the journal on: durability cost and queueing delay",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A request is one element of a window's fixed list.
type request struct {
	body  []byte
	class string        // "cold", "repeat" or "eco"; the answer check samples every class
	group int           // eco_gateway: index of the base design, else -1
	keep  bool          // the response body is kept for the answer check
	due   time.Duration // open loop: offset of the arrival from the window start
}

// inputs are everything a workload sends: warm-up first, then the list.
type inputs struct {
	warm []request
	list []request
}

// hash identifies the inputs byte for byte; the same seed gives the
// same hash.
func (in inputs) hash() string {
	h := sha256.New()
	for _, l := range [][]request{in.warm, in.list} {
		for _, r := range l {
			fmt.Fprintf(h, "%s %d %d %d\n", r.class, r.group, r.due, len(r.body))
			h.Write(r.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Deck seeds of one benchmark seed live in disjoint ranges: the list,
// the warm-up pool, and the ECO edits.
func listSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }
func warmSeed(seed int64, i int) int64 { return seed*1_000_000 + 500_000 + int64(i) }
func editSeed(seed int64, i int) int64 { return seed*1_000_000 + 700_000 + int64(i) }

// listLen is the length of the window's list for a run of the given
// length.
func (w workload) listLen(seconds float64, quick bool) int {
	if quick {
		return quickList
	}
	n := w.rps * seconds
	if !w.open {
		n *= headroom
	}
	if w.eco {
		return 10 * int(math.Ceil(n/10))
	}
	return int(math.Ceil(n))
}

func (w workload) dieSize(quick bool) int {
	if quick {
		return w.quickDie
	}
	return w.die
}

// buildInputs renders the workload's requests from the seed. The
// program under test sees only these bytes.
func buildInputs(w workload, seed int64, seconds float64, quick bool) (inputs, error) {
	n, die := w.listLen(seconds, quick), w.dieSize(quick)
	if w.eco {
		return buildEco(w, seed, n, die)
	}
	deck := func(deckSeed int64) (request, error) {
		d, err := generateDesign(die, deckSeed)
		if err != nil {
			return request{}, err
		}
		body, err := renderRequest(d, w.mode, w.inclMap, w.omitMan)
		return request{body: body, class: "cold", group: -1}, err
	}
	var in inputs
	var err error
	if in.warm, err = renderAll(warmRequests, func(i int) (request, error) { return deck(warmSeed(seed, i)) }); err != nil {
		return in, err
	}
	if in.list, err = renderAll(n, func(i int) (request, error) { return deck(listSeed(seed, i)) }); err != nil {
		return in, err
	}
	if w.open {
		for i, due := range arrivals(seed, n, seconds) {
			in.list[i].due = due
		}
	}
	markKept(in.list)
	return in, nil
}

// buildEco renders eco_gateway: ecoBases base designs (the warm-up),
// then n requests in the fixed interleave of ecoPattern. A variant is a
// new ECO edit of a base picked by the seeded generator; a repeat
// resends, byte for byte, a base or a variant sent at least ecoSettle
// positions earlier.
func buildEco(w workload, seed int64, n, die int) (inputs, error) {
	bases := make([]*design, ecoBases)
	warm, err := renderAll(ecoBases, func(i int) (request, error) {
		d, err := generateDesign(die, listSeed(seed, i))
		if err != nil {
			return request{}, err
		}
		bases[i] = d
		body, err := renderRequest(d, w.mode, w.inclMap, w.omitMan)
		return request{body: body, class: "cold", group: i}, err
	})
	if err != nil {
		return inputs{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	baseOf := make([]int, n)
	for i := range baseOf {
		baseOf[i] = rng.Intn(ecoBases)
	}
	list, err := renderAll(n, func(i int) (request, error) {
		if !ecoPattern[i%10] {
			return request{}, nil // a repeat, filled in below
		}
		body, err := renderRequest(perturbDesign(bases[baseOf[i]], editSeed(seed, i)), w.mode, w.inclMap, w.omitMan)
		return request{body: body, class: "eco", group: baseOf[i]}, err
	})
	if err != nil {
		return inputs{}, err
	}
	settled := append([]request(nil), warm...) // decks a repeat may name
	for i := range list {
		if j := i - ecoSettle; j >= 0 && list[j].class == "eco" {
			settled = append(settled, list[j])
		}
		if list[i].class == "" {
			src := settled[rng.Intn(len(settled))]
			list[i] = request{body: src.body, class: "repeat", group: src.group}
		}
	}
	markKept(list)
	return inputs{warm: warm, list: list}, nil
}

// renderAll calls render for 0..n-1 on one goroutine per client core
// and keeps the results in index order.
func renderAll(n int, render func(i int) (request, error)) ([]request, error) {
	out := make([]request, n)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += clients {
				out[i], errs[c] = render(i)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// markKept spreads at most keepPerClass kept responses evenly over the
// requests of every class.
func markKept(list []request) {
	perClass := map[string][]int{}
	for i, r := range list {
		perClass[r.class] = append(perClass[r.class], i)
	}
	for _, idx := range perClass {
		stride := (len(idx) + keepPerClass - 1) / keepPerClass
		for k := 0; k < len(idx); k += stride {
			list[idx[k]].keep = true
		}
	}
}

// arrivals returns n seeded arrival times in [0, seconds): a Poisson
// process conditioned on n arrivals in the window, which is n sorted
// uniform draws. Fixing n keeps the offered rate the same for every
// seed; the spacing keeps the bursts of independent users.
func arrivals(seed int64, n int, seconds float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}
