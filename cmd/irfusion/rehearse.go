package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/core"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/serve"
)

// Rehearsals: the resilience and durability scenarios CI gates on, as
// one table. A row is a fault profile, the steps run under it — the
// numerical analyzer under a recorder, or an in-process server driven
// over HTTP — and the expectations the resulting run manifest must
// meet, as typed predicates over obs.Manifest. Rows share nothing, so
// any subset runs on its own: `irfusion rehearse` runs them all,
// `irfusion rehearse restart` one. docs/RESILIENCE.md says what each
// row proves.

const (
	rehearseSize = 48 // die side in µm; the tests run the table at 32
	rehearseSeed = 3
)

type row struct {
	name   string
	faults string // fault profile (IRFUSION_FAULTS grammar) the steps install
	// steps runs the scenario on a size×size die and returns the run
	// manifest to check; a scenario that does not run to its end (a
	// non-200, a recovered map off the cold one) is an error here.
	steps  func(size int, faultSpec string) (*obs.Manifest, error)
	expect []expectation
}

// expectation is one named predicate over a row's manifest.
type expectation struct {
	what string
	ok   func(m *obs.Manifest) bool
}

var rehearsals = []row{
	{name: "cold", steps: analysis{}.run,
		expect: []expectation{solved}},
	// Every AMG-rung solve breaks down; nothing stands behind the one
	// cold rung, so the analysis must fail with the ladder exhausted and
	// the degradation trail must say why.
	{name: "exhausted", faults: "solver.pcg:breakdown:label=numerical.amg", steps: analysis{fails: plan.ErrLadderExhausted}.run,
		expect: []expectation{exhausted}},
	// Repeat 2's lookup returns a poisoned solution the residual guard
	// must reject, repeat 3 loses its entry to an eviction race, every
	// neighbour search pays injected latency; the cache must still
	// serve and re-store.
	{name: "cache-chaos", faults: "cache.lookup:stale:times=1;cache.lookup:evict:times=1,after=1;cache.delta:latency:delay=5ms",
		steps:  analysis{cached: true, repeats: 4}.run,
		expect: []expectation{solved, cacheServed, staleCaught}},
	// The one manifest with no solve in it: an exact repeat answered
	// from the artifact cache.
	{name: "cache-hit", steps: analysis{cached: true, prime: 1}.run,
		expect: []expectation{cacheHit}},
	// A panic mid-solve: the worker requeues the job once and the retry
	// resumes from the in-cache checkpoint.
	{name: "requeue", faults: "solver.pcg:panic:label=numerical.amg,after=10,times=1", steps: requeue,
		expect: []expectation{solved, resumedFrom("requeue")}},
	// A hard crash with the solve parked just after its first durable
	// checkpoint: the next incarnation replays the journal and resumes
	// the orphan from the blob.
	{name: "restart", faults: "checkpoint.save:stall:after=1", steps: restart,
		expect: []expectation{solved, resumedFrom("restart")}},
}

var (
	solved = expectation{"a solve with iterations > 0 and a residual history", func(m *obs.Manifest) bool {
		for _, s := range m.Solves {
			if s.Iterations > 0 && len(s.History) > 0 {
				return true
			}
		}
		return false
	}}
	exhausted = expectation{"one exhausted core.numerical record whose only attempt is numerical.amg's injected failure", func(m *obs.Manifest) bool {
		if len(m.Degradations) != 1 {
			return false
		}
		d := m.Degradations[0]
		return d.Component == "core.numerical" && d.Exhausted && len(d.Attempts) == 1 &&
			d.Attempts[0].Rung == plan.RungAMG && strings.Contains(d.Attempts[0].Error, "injected")
	}}
	cacheServed = expectation{"a cache section with a store and a hit, warm start, or stale rejection", func(m *obs.Manifest) bool {
		c := m.Cache
		return c != nil && c.Stores > 0 && c.Hits+c.WarmStarts+c.Stale > 0
	}}
	staleCaught = expectation{"the poisoned entry rejected as stale and its solution re-stored", func(m *obs.Manifest) bool {
		return m.Cache != nil && m.Cache.Stale > 0 && m.Cache.Stores > 1
	}}
	cacheHit = expectation{"an exact cache hit", func(m *obs.Manifest) bool {
		return m.Cache != nil && m.Cache.Hits > 0
	}}
)

// resumedFrom expects a checkpoint resumed mid-solve with the given
// provenance — a run that silently re-solved from scratch fails it.
func resumedFrom(from string) expectation {
	return expectation{"a checkpoint resumed at iteration > 0 from " + from, func(m *obs.Manifest) bool {
		rs := m.Resume
		return rs != nil && rs.Outcome == obs.ResumeAccepted && rs.Iter > 0 && rs.From == from
	}}
}

// check holds m to the manifest schema, then to the row's expectations.
func (r row) check(m *obs.Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for _, e := range r.expect {
		if !e.ok(m) {
			return fmt.Errorf("manifest lacks %s", e.what)
		}
	}
	return nil
}

// cmdRehearse runs the named rows (all of them without arguments) and
// returns the process exit status: 2 for an unknown row, 1 when a row
// failed — its manifest is then left in a temp file for inspection.
func cmdRehearse(args []string) int {
	rows := rehearsals
	if len(args) > 0 {
		rows = nil
		for _, name := range args {
			r, ok := rowNamed(name)
			if !ok {
				var names []string
				for _, r := range rehearsals {
					names = append(names, r.name)
				}
				log.Printf("rehearse: no row %q; rows: %s", name, strings.Join(names, " "))
				return 2
			}
			rows = append(rows, r)
		}
	}
	status := 0
	for _, r := range rows {
		start := time.Now()
		m, err := r.steps(rehearseSize, r.faults)
		if err == nil {
			err = r.check(m)
		}
		if err != nil {
			status = 1
			log.Printf("rehearse %s: FAIL: %v", r.name, err)
			if m != nil {
				path := filepath.Join(os.TempDir(), "irfusion-rehearse-"+r.name+".json")
				if werr := m.WriteFile(path); werr == nil {
					log.Printf("rehearse %s: manifest left in %s", r.name, path)
				}
			}
			continue
		}
		log.Printf("rehearse %-11s ok (%.2fs)", r.name, time.Since(start).Seconds())
	}
	return status
}

func rowNamed(name string) (row, bool) {
	for _, r := range rehearsals {
		if r.name == name {
			return r, true
		}
	}
	return row{}, false
}

// installFaults makes spec the process-wide fault profile and returns
// the call that puts the previous one back.
func installFaults(spec string) (restore func()) {
	prev := faults.Active()
	faults.SetActive(faults.MustParse(spec))
	return func() { faults.SetActive(prev) }
}

// analysis is the steps of an analyze row: the numerical analyzer,
// solving the generated real-class die to convergence under one
// recorder — what `irfusion analyze -size N -seed 3` runs.
type analysis struct {
	cached  bool  // give the run an artifact cache of its own
	prime   int   // analyses run first, unrecorded, to fill that cache
	repeats int   // recorded analyses of the same die (0 means 1)
	fails   error // an analysis error wrapping this ends the run; the row's expectations judge its manifest
}

func (a analysis) run(size int, faultSpec string) (*obs.Manifest, error) {
	defer installFaults(faultSpec)()
	d, err := pgen.Generate(pgen.DefaultConfig("rehearse", pgen.Real, size, size, rehearseSeed))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if a.cached {
		ctx = cache.WithCache(ctx, cache.New(0, 0))
	}
	na := &core.NumericalAnalyzer{Resolution: size}
	for i := 0; i < a.prime; i++ {
		if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
			return nil, fmt.Errorf("priming analysis: %w", err)
		}
	}
	rec := obs.NewRecorder()
	ctx = obs.WithRecorder(ctx, rec)
	for i := 0; i < max(1, a.repeats); i++ {
		if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
			if a.fails != nil && errors.Is(err, a.fails) {
				break
			}
			return rec.Manifest("rehearse", nil), fmt.Errorf("analysis %d: %w", i+1, err)
		}
	}
	return rec.Manifest("rehearse", nil), nil
}

// The crash rows drive serve.New over HTTP, one worker, journal on,
// a checkpoint every 4 iterations so a 48 µm solve leaves several.

// requeue posts the job synchronously: the injected panic kills the
// solve after checkpoints exist, the recovery barrier requeues it, and
// the client must still see 200 done with the cold map.
func requeue(size int, faultSpec string) (*obs.Manifest, error) {
	body := crashBody(size, false)
	cold, err := coldMap(body)
	if err != nil {
		return nil, err
	}
	defer installFaults(faultSpec)()
	dir, err := os.MkdirTemp("", "irfusion-rehearse-journal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, ts := crashServer(dir)
	defer closeServer(s, ts)
	v, err := postJob(ts, body)
	if err != nil {
		return nil, err
	}
	return recovered(v, cold)
}

// restart posts the job async, waits for its first checkpoint blob —
// the fault profile parks the solve there, so that is a state, not a
// window — and crashes the server: no shutdown hook runs, the journal
// directory holds what a kill -9 leaves. The profile dies with that
// process; a second server on the directory must finish the job under
// its original id.
func restart(size int, faultSpec string) (*obs.Manifest, error) {
	cold, err := coldMap(crashBody(size, false))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "irfusion-rehearse-journal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	restore := installFaults(faultSpec)
	s1, ts1 := crashServer(dir)
	v, err := postJob(ts1, crashBody(size, true))
	if err == nil {
		err = poll("a checkpoint blob", func() (bool, error) {
			blobs, err := filepath.Glob(filepath.Join(dir, "checkpoints", "*.ckpt"))
			return len(blobs) > 0, err
		})
	}
	s1.Crash()
	ts1.Close()
	restore()
	if err != nil {
		return nil, err
	}

	s2, ts2 := crashServer(dir)
	defer closeServer(s2, ts2)
	id := v.ID
	err = poll("job "+id+" to finish", func() (bool, error) {
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id)
		if err != nil {
			return false, err
		}
		v, err = decodeJob(resp, http.StatusOK)
		return v.Status.Terminal(), err
	})
	if err != nil {
		return nil, err
	}
	if v.ID != id {
		return nil, fmt.Errorf("recovered job answers as %q, want its original id %q", v.ID, id)
	}
	return recovered(v, cold)
}

// crashBody is the crash rows' request: a generated fake-class die,
// map included so recovery can be held to the cold answer.
func crashBody(size int, async bool) string {
	return fmt.Sprintf(`{"pgen": {"class": "fake", "w": %d, "h": %d, "seed": %d}, "include_map": true, "async": %t}`,
		size, size, rehearseSeed, async)
}

func crashServer(journalDir string) (*serve.Server, *httptest.Server) {
	s := serve.New(serve.Config{Workers: 1, JournalDir: journalDir, CheckpointEvery: 4})
	return s, httptest.NewServer(s.Handler())
}

func closeServer(s *serve.Server, ts *httptest.Server) {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Close(ctx) // a drain that times out has already cancelled its jobs
}

// coldMap is the reference the crash rows compare against: the same
// request on an undisturbed server, before any fault is installed.
func coldMap(body string) ([]float64, error) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer closeServer(s, ts)
	v, err := postJob(ts, body)
	if err != nil {
		return nil, fmt.Errorf("cold reference solve: %w", err)
	}
	if v.Status != serve.StatusDone || v.Result == nil || len(v.Result.Map) == 0 {
		return nil, fmt.Errorf("cold reference solve: status %q (error %q), no map", v.Status, v.Error)
	}
	return v.Result.Map, nil
}

// recovered accepts a crash row's final job view — done, with a map
// equal to the cold one to 1e-8 — and returns its manifest.
func recovered(v serve.JobView, cold []float64) (*obs.Manifest, error) {
	if v.Status != serve.StatusDone || v.Result == nil || v.Result.Manifest == nil {
		return nil, fmt.Errorf("job %s ended %q (error %q), want done with a manifest", v.ID, v.Status, v.Error)
	}
	m := v.Result.Manifest
	if len(v.Result.Map) != len(cold) {
		return m, fmt.Errorf("recovered map has %d cells, the cold map %d", len(v.Result.Map), len(cold))
	}
	for i, c := range cold {
		if d := math.Abs(v.Result.Map[i] - c); d > 1e-8 {
			return m, fmt.Errorf("recovered map differs from the cold map by %g at cell %d (tol 1e-8)", d, i)
		}
	}
	return m, nil
}

// postJob submits an analyze request: a synchronous body returns the
// finished job, an async one its 202 acknowledgement.
func postJob(ts *httptest.Server, body string) (serve.JobView, error) {
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		return serve.JobView{}, err
	}
	return decodeJob(resp, http.StatusOK, http.StatusAccepted)
}

func decodeJob(resp *http.Response, want ...int) (serve.JobView, error) {
	var v serve.JobView
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	for _, code := range want {
		if resp.StatusCode == code {
			err = json.Unmarshal(b, &v)
			return v, err
		}
	}
	return v, fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, b)
}

// poll waits for a state that, once reached, stays: done reports it.
func poll(what string, done func() (bool, error)) error {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if ok, err := done(); ok || err != nil {
			return err
		}
	}
	return fmt.Errorf("timed out waiting for %s", what)
}
