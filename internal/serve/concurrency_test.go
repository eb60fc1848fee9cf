package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
)

// genDeck generates a synthetic design and returns its SPICE text.
func genDeck(t *testing.T, size int, seed int64) string {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("deck", pgen.Fake, size, size, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d.Netlist.String()
}

// TestConcurrentRequestsNoManifestCrossTalk hammers the handler with
// concurrent synchronous requests, each of which runs under its own
// obs.Recorder bound to the job context. Every response's manifest
// must contain exactly the records of its own analysis — one labeled
// solve, one run of each numerical stage — or recorders are leaking
// across requests.
func TestConcurrentRequestsNoManifestCrossTalk(t *testing.T) {
	const n = 16
	_, ts := newTestServer(t, Config{Workers: n, QueueDepth: 2 * n})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			iters := 2 + int(seed%5) // distinct budgets to tell runs apart
			body := pgenBody(seed, 32, fmt.Sprintf(`"iters": %d, "precond": "ssor"`, iters))
			code, b := post(t, ts, "/v1/analyze", body)
			if code != http.StatusOK {
				errs <- fmt.Errorf("seed %d: status %d: %s", seed, code, b)
				return
			}
			v := decodeJob(t, b)
			if v.Status != StatusDone {
				errs <- fmt.Errorf("seed %d: status %q: %s", seed, v.Status, v.Error)
				return
			}
			m := v.Result.Manifest
			if m == nil {
				errs <- fmt.Errorf("seed %d: no manifest", seed)
				return
			}
			if err := m.Validate(); err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
				return
			}
			if len(m.Solves) != 1 || m.Solves[0].Label != plan.RungSSOR {
				errs <- fmt.Errorf("seed %d: cross-talk: %d solves %+v", seed, len(m.Solves), m.Solves)
				return
			}
			if got := m.Solves[0].Iterations; got != iters {
				errs <- fmt.Errorf("seed %d: solve ran %d iterations, want its own budget %d", seed, got, iters)
				return
			}
			if m.Counters["serve.job"] != 1 {
				errs <- fmt.Errorf("seed %d: serve.job counter %d, want 1", seed, m.Counters["serve.job"])
				return
			}
			for _, st := range m.Stages {
				if st.Count != 1 {
					errs <- fmt.Errorf("seed %d: cross-talk: stage %s ran %d times", seed, st.Name, st.Count)
					return
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMixedConcurrentRequestsOwnManifests keeps 16 mixed requests in
// flight on 4 workers with the cache on — numerical cold, numerical
// repeats of those bodies, and fused — and checks that every manifest
// counts only what its own recorder counted: the job, and one memo
// verdict among its cache events — none of the process-global kernel,
// network, cache or job counters its neighbours also move.
func TestMixedConcurrentRequestsOwnManifests(t *testing.T) {
	const n = 16
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: n, Analyzer: tinyAnalyzer(t)})
	bodies := make([]string, n)
	for i := range bodies {
		switch i % 3 {
		case 0:
			bodies[i] = fusedBody(int64(100+i), "")
		case 1:
			bodies[i] = pgenBody(int64(200+i), fusedRes, "")
		case 2:
			bodies[i] = bodies[i-1] // a repeat of the cold numerical body before it
		}
	}
	globals := []string{"nn.", "circuit.", "cache.hit", "cache.miss", "cache.store", "cache.evict", "serve.jobs."}
	// check returns every way request i's manifest is not its own.
	check := func(i int, body string) error {
		code, b := post(t, ts, "/v1/analyze", body)
		if code != http.StatusOK {
			return fmt.Errorf("status %d: %s", code, b)
		}
		v := decodeJob(t, b)
		if v.Status != StatusDone || v.Result == nil || v.Result.Manifest == nil {
			return fmt.Errorf("status %q, error %q, no manifest", v.Status, v.Error)
		}
		m := v.Result.Manifest
		errs := []error{m.Validate()}
		for k, c := range m.Counters {
			for _, g := range globals {
				if strings.HasPrefix(k, g) {
					errs = append(errs, fmt.Errorf("process counter %s=%d in the manifest", k, c))
				}
			}
		}
		if len(m.Counters) != 1 || m.Counters["serve.job"] != 1 {
			errs = append(errs, fmt.Errorf("counters %v, want serve.job=1 alone", m.Counters))
		}
		if oc := cacheOutcomes(t, m, "serve.analyze"); oc[obs.CacheHit]+oc[obs.CacheMiss] != 1 {
			errs = append(errs, fmt.Errorf("serve.analyze events %v, want one memo verdict", oc))
		}
		if i%3 == 0 {
			ran := map[string]int64{}
			for _, st := range m.Stages {
				ran[st.Name] = st.Count
			}
			for _, name := range []string{"dataset.features.structure", "dataset.rough_solve", "dataset.features.numerical", "ml.inference"} {
				if ran[name] != 1 {
					errs = append(errs, fmt.Errorf("fused stage %s ran %d times, want 1", name, ran[name]))
				}
			}
		}
		return errors.Join(errs...)
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			if err := check(i, body); err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
			}
		}(i, body)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSixteenConcurrentInFlight verifies the service actually holds
// ≥16 analyses in flight at once: 16 workers each pick up a converged
// solve, the fault lets two PCG iterations through between them all and
// parks every solve at its next one, the test observes in-flight == 16
// and 16 parked solves, then cancels everything and checks each job
// stopped mid-solve.
func TestSixteenConcurrentInFlight(t *testing.T) {
	const n = 16
	withGlobalFaults(t, parkMidSolve)
	s, ts := newTestServer(t, Config{Workers: n, QueueDepth: 2 * n})
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		// Job identity comes from the id, not the design.
		code, b := post(t, ts, "/v1/analyze", pgenBody(5, 64, `"async": true`))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d: %s", i, code, b)
		}
		ids = append(ids, decodeJob(t, b).ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs in flight", s.InFlight(), n)
		}
		time.Sleep(time.Millisecond)
	}
	waitStalled(t, n)
	for _, id := range ids {
		if code, b := del(t, ts, "/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("cancel %s: status %d: %s", id, code, b)
		}
	}
	iters := 0
	for _, id := range ids {
		v := waitStatus(t, ts, id, Status.Terminal)
		if v.Status != statusCancelled {
			t.Errorf("%s: status %q, want cancelled (error %q)", id, v.Status, v.Error)
			continue
		}
		if v.Result == nil || v.Result.Manifest == nil || len(v.Result.Manifest.Solves) != 1 {
			t.Errorf("%s: missing partial manifest", id)
			continue
		}
		iters += v.Result.Manifest.Solves[0].Iterations
	}
	if iters != 2 {
		t.Errorf("the parked solves ran %d iterations between them, want the 2 the fault let through", iters)
	}
}
