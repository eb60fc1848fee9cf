package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// setupRepeats is how often a measured run trains the model, starts the
// servers and warms them up; setup_s is the time to build the inputs
// (once: the same bytes every time) plus the median of these, and the
// window uses the last set-up.
const setupRepeats = 3

// runOpts are the arguments of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	quick   bool
	setups  int    // how many times to set up before the window
	traced  bool   // run the traced pass after the window
	spans   string // file the traced pass writes its spans to, if any
}

// result is what one run of one workload measured.
type result struct {
	Run        int                `json:"run"` // index of the suite repetition
	Workload   string             `json:"workload"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"` // the first few, for the log
	InputsHash string             `json:"inputs_sha256"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

// environment is one set-up of a workload: model trained, servers
// listening, warm-up answered, for inputs rendered once per run.
type environment struct {
	in        inputs
	an        *analyzer
	fleet     *fleet
	client    *http.Client
	baseShard map[int]string // eco_gateway: the shard that answered each base design in warm-up
}

func setUp(w workload, in inputs, o runOpts) (*environment, error) {
	e := &environment{in: in, client: newClient(clients), baseShard: map[int]string{}}
	var err error
	if w.mode == modeFused {
		if e.an, err = trainAnalyzer(modelResolution(o.quick)); err != nil {
			return nil, err
		}
	}
	if e.fleet, err = startFleet(w.shards, e.an, w.journaled); err != nil {
		return nil, fmt.Errorf("start servers: %w", err)
	}
	warm, _ := drive(e.client, e.fleet.front.url, in.warm, false, time.Hour)
	for _, s := range warm {
		if !s.ok {
			return nil, errors.Join(fmt.Errorf("warm-up request %d: %s", s.idx, s.fail), e.tearDown())
		}
		e.baseShard[in.warm[s.idx].group] = s.shard
	}
	return e, nil
}

func (e *environment) tearDown() error {
	e.client.CloseIdleConnections()
	err := e.fleet.stop()
	runtime.GC()
	return err
}

// runWorkload sets the workload up, drives one window, checks the
// answers and derives the metrics.
func runWorkload(w workload, o runOpts) (*result, error) {
	start := time.Now()
	in, err := buildInputs(w, o.seed, o.seconds, o.quick)
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	inputsS := time.Since(start).Seconds()
	var env *environment
	var serversS []float64
	for i := 0; i < o.setups; i++ {
		if env != nil {
			if err := env.tearDown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if env, err = setUp(w, in, o); err != nil {
			return nil, err
		}
		serversS = append(serversS, time.Since(start).Seconds())
	}
	defer func() {
		if env != nil {
			env.tearDown()
		}
	}()

	before, err := env.fleet.snapshot(env.client)
	if err != nil {
		return nil, err
	}
	alloc := heapAllocBytes()
	window := time.Duration(o.seconds * float64(time.Second))
	samples, wall := drive(env.client, env.fleet.front.url, env.in.list, w.open, window)
	alloc = heapAllocBytes() - alloc
	after, err := env.fleet.snapshot(env.client)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Attempted: len(samples), InputsHash: env.in.hash()}
	fail := func(format string, args ...any) {
		res.Failed++
		if len(res.Failures) < 5 {
			res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
		}
	}
	bad := map[int]bool{} // samples that were answered but failed the answer check
	for _, s := range verifySample(samples, env.in.list) {
		if err := checkAnswer(env.in.list[s.idx].body, s.body, env.an); err != nil {
			bad[s.idx] = true
			fail("request %d (%s): %v", s.idx, env.in.list[s.idx].class, err)
		}
	}
	var lat, late []float64
	var answered []sample
	inSLO, reqBytes, respBytes := 0, 0, 0
	perShard := map[string]int{}
	variants, affine := 0, 0
	for _, s := range samples {
		r := env.in.list[s.idx]
		reqBytes += len(r.body)
		respBytes += s.respBytes
		late = append(late, millis(s.late()))
		if !s.ok {
			fail("request %d (%s): %s", s.idx, r.class, s.fail)
			continue
		}
		if bad[s.idx] {
			continue
		}
		lat = append(lat, millis(s.latency()))
		answered = append(answered, s)
		if millis(s.latency()) <= w.sloMS {
			inSLO++
		}
		if s.shard != "" {
			perShard[s.shard]++
		}
		if r.class == "eco" {
			variants++
			if s.shard == env.baseShard[r.group] {
				affine++
			}
		}
	}
	n := float64(len(samples))
	if n == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("%s: no request was answered: %v", w.name, res.Failures)
	}
	windowRPS := float64(len(lat)) / wall.Seconds()
	res.EndToEnd = map[string]float64{
		"setup_s":        inputsS + median(serversS),
		"throughput_rps": windowRPS,
		"latency_p10_ms": percentile(lat, 100-quietPercentile),
	}
	// In an open loop the schedule sets the rate and throughput only says
	// whether the servers kept up; a closed loop's best seconds say what
	// they can do. A list that ran out within a second (-quick) has none.
	if rates := perSecond(answered, min(wall, window)); !w.open && len(rates) > 0 {
		res.EndToEnd["throughput_rps"] = percentile(rates, quietPercentile)
	}

	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hits, misses := float64(after.Cache.Hits-before.Cache.Hits), float64(after.Cache.Misses-before.Cache.Misses)
	par := counter("parallel.for.parallel") + counter("parallel.do.parallel")
	pl := map[string]float64{
		"loadgen.samples":         float64(len(lat)),
		"loadgen.late_p90_ms":     percentile(late, 90),
		"loadgen.slo_share":       float64(inSLO) / n,
		"cache.hits":              hits,
		"cache.misses":            misses,
		"cache.stores":            float64(after.Cache.Stores - before.Cache.Stores),
		"cache.evictions":         float64(after.Cache.Evictions - before.Cache.Evictions),
		"cache.hit_ratio":         ratio(hits, hits+misses),
		"cache.bytes_end":         float64(after.Cache.Bytes),
		"serve.window_rps":        windowRPS,
		"serve.latency_p50_ms":    percentile(lat, 50),
		"serve.latency_p90_ms":    percentile(lat, 90),
		"serve.jobs_done":         counter("serve.jobs.done"),
		"serve.jobs_failed":       counter("serve.jobs.failed"),
		"serve.jobs_rejected":     counter("serve.jobs.rejected"),
		"serve.req_mb":            float64(reqBytes) / n / 1e6,
		"serve.resp_kb":           float64(respBytes) / n / 1e3,
		"serve.alloc_mb_per_req":  float64(alloc) / n / 1e6,
		"cluster.forwards":        counter("cluster.forwards"),
		"cluster.handoffs":        counter("cluster.handoffs"),
		"cluster.affinity_ratio":  ratio(float64(affine), float64(variants)),
		"cluster.shard_balance":   balance(perShard),
		"parallel.par_share":      ratio(par, par+counter("parallel.for.serial")+counter("parallel.do.serial")),
		"parallel.tasks_per_req":  counter("parallel.tasks") / n,
		"journal.records_per_job": 0,
		"journal.bytes_per_job":   0,
	}
	if w.journaled {
		records, size, err := journalUse(env.fleet.journalDir(0))
		if err != nil {
			return nil, err
		}
		jobs := n + float64(len(env.in.warm))
		pl["journal.records_per_job"] = float64(records) / jobs
		pl["journal.bytes_per_job"] = float64(size) / jobs
	}
	res.PerLayer = pl
	if !o.traced {
		return res, nil
	}

	// The traced pass starts its own servers; free the window's first.
	in, an := env.in, env.an
	err = env.tearDown()
	env = nil
	if err != nil {
		return nil, err
	}
	traced, err := tracedPass(w, in, an, o)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	for k, v := range traced {
		pl[k] = v
	}
	return res, nil
}

// quietPercentile puts the two end-to-end timings on the quiet side
// of the window. The sandbox shares its host: neighbours slow the
// servers by 10 to 60 % for seconds to minutes at a time and never
// speed them up, so a window's plain mean and median follow the
// neighbours' load (they ranged 25 to 40 % between runs of one commit
// when the driver checked the first version of this benchmark), while
// its best tenth holds still as long as a tenth of it is undisturbed.
// Throughput is therefore the 90th percentile of the per-second counts
// of answered requests and latency the 10th percentile of the round
// trips; the whole-window mean and median are reported per layer as
// serve.window_rps and serve.latency_p50_ms.
const quietPercentile = 90

// perSecond is the number of requests answered in each whole second of
// the window. A request in flight from a to b counts towards a second by
// the share of [a, b] that falls inside it, so the counts are not
// whole numbers one response either side of the true rate.
func perSecond(answered []sample, window time.Duration) []float64 {
	counts := make([]float64, window/time.Second)
	for _, s := range answered {
		for k := int(s.start / time.Second); k < len(counts) && time.Duration(k)*time.Second < s.end; k++ {
			from := max(s.start, time.Duration(k)*time.Second)
			to := min(s.end, time.Duration(k+1)*time.Second)
			counts[k] += float64(to-from) / float64(s.end-s.start)
		}
	}
	return counts
}

// verifySample picks the answered requests whose responses are decoded
// and checked: sampleSize of them, shared equally between the classes
// of the list and spread evenly over each class's kept responses.
func verifySample(samples []sample, list []request) []sample {
	perClass := map[string][]sample{}
	for _, s := range samples {
		if s.ok && s.body != nil {
			c := list[s.idx].class
			perClass[c] = append(perClass[c], s)
		}
	}
	classes := make([]string, 0, len(perClass))
	for c := range perClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var picked []sample
	for _, c := range classes {
		kept := perClass[c]
		want := min((sampleSize+len(classes)-1)/len(classes), len(kept))
		for k := 0; k < want; k++ {
			picked = append(picked, kept[k*len(kept)/want])
		}
	}
	return picked
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// balance is the largest per-shard request count over the mean; 1 is
// even, 0 means no response named a shard.
func balance(perShard map[string]int) float64 {
	total, most := 0, 0
	for _, c := range perShard {
		total += c
		most = max(most, c)
	}
	return ratio(float64(most)*float64(len(perShard)), float64(total))
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// journalUse replays one journal directory: its record count and the
// bytes of its files (segments and checkpoint blobs).
func journalUse(dir string) (records int, bytes int64, err error) {
	if records, err = journalStats(dir); err != nil {
		return 0, 0, err
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			bytes += info.Size()
		}
		return err
	})
	return records, bytes, err
}
