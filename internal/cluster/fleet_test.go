package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irfusion/internal/faults"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

// fleetShard is one real serve.Server instance behind the gateway,
// with a middleware counter so tests can prove which shards were (or
// were not) touched by analysis traffic. The middleware also keeps a
// copy of every analysis body past bigBody bytes, as it arrived.
type fleetShard struct {
	name        string
	svc         *serve.Server
	ts          *httptest.Server
	analyzeHits atomic.Int64
	killed      atomic.Bool

	mu       sync.Mutex
	received [][]byte
}

// bigBody is the size past which an analysis body counts as big.
const bigBody = 1 << 20

// fleet is the in-process N-shard rehearsal harness of the tentpole:
// real serve instances, a real gateway, all in one binary so the whole
// topology runs under -race.
type fleet struct {
	t      *testing.T
	gw     *Gateway
	gwTS   *httptest.Server
	shards []*fleetShard
}

// newFleet boots n shards named shard0..shard{n-1} plus a gateway.
// The background probe loop waits an hour unless gcfg says otherwise —
// tests drive probeNow for deterministic shard health — and one
// initial sweep marks every shard healthy.
func newFleet(t *testing.T, n int, scfg serve.Config, gcfg Config) *fleet {
	t.Helper()
	f := &fleet{t: t}
	for i := 0; i < n; i++ {
		cfg := scfg
		cfg.Name = fmt.Sprintf("shard%d", i)
		sh := &fleetShard{name: cfg.Name, svc: serve.New(cfg)}
		inner := sh.svc.Handler()
		sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/analyze" {
				sh.analyzeHits.Add(1)
				if r.ContentLength > bigBody {
					b, err := io.ReadAll(r.Body)
					if err != nil {
						http.Error(w, err.Error(), http.StatusBadRequest)
						return
					}
					sh.mu.Lock()
					sh.received = append(sh.received, b)
					sh.mu.Unlock()
					r.Body = io.NopCloser(bytes.NewReader(b))
				}
			}
			inner.ServeHTTP(w, r)
		}))
		f.shards = append(f.shards, sh)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, sh := range f.shards {
			if sh.killed.Load() {
				continue
			}
			sh.ts.Close()
			if err := sh.svc.Close(ctx); err != nil {
				t.Errorf("shard %s Close: %v", sh.name, err)
			}
		}
	})
	f.gw, f.gwTS = f.addGateway(gcfg)
	return f
}

// addGateway puts one more gateway in front of the fleet's shards and
// sweeps its probes once. Cleanup closes it before the shards.
func (f *fleet) addGateway(gcfg Config) (*Gateway, *httptest.Server) {
	f.t.Helper()
	for _, sh := range f.shards {
		gcfg.Shards = append(gcfg.Shards, ShardSpec{Name: sh.name, URL: sh.ts.URL})
	}
	if gcfg.ProbeInterval == 0 {
		gcfg.ProbeInterval = time.Hour // manual probeNow only
	}
	gw, err := New(gcfg)
	if err != nil {
		f.t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	gw.probeNow(context.Background())
	f.t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := gw.Close(ctx); err != nil {
			f.t.Errorf("gateway Close: %v", err)
		}
	})
	return gw, ts
}

// kill takes a shard down hard, mid-whatever-it-is-doing: live
// connections are severed (in-flight forwards fail at the gateway),
// running jobs are force-cancelled, and the listener closes so every
// later probe or forward gets connection-refused.
func (f *fleet) kill(name string) {
	f.t.Helper()
	for _, sh := range f.shards {
		if sh.name != name {
			continue
		}
		sh.killed.Store(true)
		sh.ts.CloseClientConnections()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired context = force-cancel all in-flight jobs
		_ = sh.svc.Close(ctx)
		sh.ts.Close()
		return
	}
	f.t.Fatalf("no shard named %q", name)
}

func (f *fleet) shard(name string) *fleetShard {
	f.t.Helper()
	for _, sh := range f.shards {
		if sh.name == name {
			return sh
		}
	}
	f.t.Fatalf("no shard named %q", name)
	return nil
}

// waitInFlight waits until the named shard is running exactly one job
// and fails the test if it is not within the deadline, so a test that
// acts "mid-job" knows the job reached the shard and started.
func (f *fleet) waitInFlight(name string) {
	f.t.Helper()
	sh := f.shard(name)
	deadline := time.Now().Add(30 * time.Second)
	for sh.svc.InFlight() != 1 {
		if time.Now().After(deadline) {
			f.t.Fatalf("shard %s has %d jobs in flight, want 1", name, sh.svc.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// postAnalyze POSTs req through the gateway and returns the full
// response with its body read.
func (f *fleet) postAnalyze(req *serve.AnalyzeRequest) (*http.Response, []byte) {
	f.t.Helper()
	resp, body, err := f.tryPostAnalyze(req)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp, body
}

func (f *fleet) tryPostAnalyze(req *serve.AnalyzeRequest) (*http.Response, []byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(f.gwTS.URL+"/v1/analyze", "application/json", strings.NewReader(string(b)))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// postBody POSTs body to url's /v1/analyze and returns the response
// with its body read.
func postBody(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeView(t *testing.T, body []byte) serve.JobView {
	t.Helper()
	var v serve.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode job view: %v\nbody: %s", err, body)
	}
	return v
}

// mustKey computes the gateway's routing key for a request.
func mustKey(t *testing.T, req *serve.AnalyzeRequest) string {
	t.Helper()
	key, err := routingKey(req)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// ecoPair generates a baseline design and an ECO neighbor within the
// warm-delta budget (0.5% of resistors perturbed — comfortably inside
// the 2% DefaultWarmDelta even on a miniature 24×24 die), both as
// SPICE deck text the way a real client would submit them.
func ecoPair(t *testing.T, seed int64) (base, eco string) {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("fleet", pgen.Real, 24, 24, seed))
	if err != nil {
		t.Fatal(err)
	}
	return d.Netlist.String(), pgen.Perturb(d, 0.005, seed+100).Netlist.String()
}

// TestFleetWarmAffinity is the first half of the acceptance scenario:
// two decks within the warm-delta budget share a routing key, land on
// the same shard, and the second request warm-starts off the first's
// cached artifacts — the cache affinity the ring exists to preserve.
func TestFleetWarmAffinity(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 1}, Config{})
	base, eco := ecoPair(t, 21)

	baseReq := &serve.AnalyzeRequest{Spice: base}
	ecoReq := &serve.AnalyzeRequest{Spice: eco}
	key := mustKey(t, baseReq)
	if mustKey(t, ecoReq) != key {
		t.Fatal("ECO neighbor has a different routing key")
	}
	owner := f.gw.ring.Shard(key)

	resp, body := f.postAnalyze(baseReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.HeaderShard); got != owner {
		t.Fatalf("baseline landed on %q, ring owner is %q", got, owner)
	}
	v := decodeView(t, body)
	m := v.Result.Manifest
	if m.Shard != owner {
		t.Fatalf("baseline manifest shard %q != %q", m.Shard, owner)
	}
	if m.Cache == nil || m.Cache.Stores == 0 {
		t.Fatalf("baseline run stored no artifacts: %+v", m.Cache)
	}

	resp, body = f.postAnalyze(ecoReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eco: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.HeaderShard); got != owner {
		t.Fatalf("eco request landed on %q, want cache-affine shard %q", got, owner)
	}
	m = decodeView(t, body).Result.Manifest
	if m.Cache == nil || m.Cache.WarmStarts+m.Cache.Hits == 0 {
		t.Fatalf("eco request did not reuse the shard's cache: %+v", m.Cache)
	}

	// Affinity is exclusive: no other shard saw a single analyze call.
	for _, sh := range f.shards {
		hits := sh.analyzeHits.Load()
		if sh.name == owner && hits != 2 {
			t.Errorf("owner %s served %d analyze calls, want 2", sh.name, hits)
		}
		if sh.name != owner && hits != 0 {
			t.Errorf("shard %s saw %d analyze calls, want 0", sh.name, hits)
		}
	}
}

// TestFleetFailoverMidJob is the second half of the acceptance
// scenario: the owning shard is killed mid-solve, the gateway retries
// on the ring successor, the job completes there with the handoff
// recorded in its manifest, and — once probe sweeps take the dead
// shard out of rotation — its keys are remapped to the successor
// without another failed attempt.
func TestFleetFailoverMidJob(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 1}, Config{})
	base, eco := ecoPair(t, 33)
	req := &serve.AnalyzeRequest{Spice: base}
	succ := f.gw.ring.successors(mustKey(t, req))
	owner, backup := succ[0], succ[1]

	// Park the first executed job on an injected worker stall: only the
	// kill's force-cancel releases it, so the kill always lands mid-job.
	// The retried job on the successor is not parked (Times: 1).
	faults.SetActive(faults.New(faults.Rule{Site: faults.SiteServeWorker, Action: faults.ActStall, Times: 1}))
	t.Cleanup(func() { faults.SetActive(nil) })

	type outcome struct {
		resp *http.Response
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, body, err := f.tryPostAnalyze(req)
		ch <- outcome{resp, body, err}
	}()
	f.waitInFlight(owner)
	f.kill(owner)

	out := <-ch
	if out.err != nil {
		t.Fatalf("failover request: %v", out.err)
	}
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", out.resp.StatusCode, out.body)
	}
	if got := out.resp.Header.Get(serve.HeaderShard); got != backup {
		t.Fatalf("retried job completed on %q, want ring successor %q", got, backup)
	}
	if got := out.resp.Header.Get(serve.HeaderRouteAttempt); got != "2" {
		t.Fatalf("route attempts = %s, want 2 (one handoff)", got)
	}
	m := decodeView(t, out.body).Result.Manifest
	if m.Shard != backup {
		t.Fatalf("manifest shard %q, want %q", m.Shard, backup)
	}
	if m.Counters["serve.handoff"] != 1 {
		t.Fatalf("manifest did not record the handoff: counters %v", m.Counters)
	}
	cfg, ok := m.Config.(map[string]any)
	if !ok || cfg["handoff_from"] != owner {
		t.Fatalf("manifest handoff_from = %v, want %q", cfg, owner)
	}

	// Probe sweeps notice the corpse (failureLimit failures → breaker
	// opens) and remap the dead shard's keys: the ECO neighbor now
	// routes straight to the successor, first attempt, no failed
	// forward — and warm-starts off the failed-over job's artifacts.
	for i := 0; i < failureLimit; i++ {
		f.gw.probeNow(context.Background())
	}
	if state := f.gw.breakerStates()[owner]; state != "open" {
		t.Fatalf("dead shard's breaker is %q, want open", state)
	}
	resp, body := f.postAnalyze(&serve.AnalyzeRequest{Spice: eco})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remapped request: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.HeaderShard); got != backup {
		t.Fatalf("remapped request landed on %q, want %q", got, backup)
	}
	if got := resp.Header.Get(serve.HeaderRouteAttempt); got != "1" {
		t.Fatalf("remapped request took %s attempts, want 1 (breaker skip, not handoff)", got)
	}
	m = decodeView(t, body).Result.Manifest
	if m.Cache == nil || m.Cache.WarmStarts+m.Cache.Hits == 0 {
		t.Fatalf("remapped ECO request found no warm artifacts on the successor: %+v", m.Cache)
	}
}

// TestFleetLadderExhaustedNotHandedOff: a request whose solve ladder
// is exhausted on its owner answers the owner's 503 with error_kind
// ladder-exhausted after one attempt. The pipeline is deterministic,
// so the ring successor, which would fail the same way, gets no job.
func TestFleetLadderExhaustedNotHandedOff(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 1}, Config{})
	faults.SetActive(faults.New(faults.Rule{Site: faults.SiteAMGSetup, Action: faults.ActFail}))
	t.Cleanup(func() { faults.SetActive(nil) })
	req := &serve.AnalyzeRequest{Pgen: &pgen.Config{Class: pgen.Fake, W: 16, H: 16, Seed: 5}}
	succ := f.gw.ring.successors(mustKey(t, req))

	resp, body := f.postAnalyze(req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if v := decodeView(t, body); v.ErrorKind != serve.ErrKindExhausted {
		t.Errorf("error_kind %q, want %q: %s", v.ErrorKind, serve.ErrKindExhausted, body)
	}
	if got := resp.Header.Get(serve.HeaderRouteAttempt); got != "1" {
		t.Errorf("route attempts %q, want 1", got)
	}
	if got, ok := resp.Header["Retry-After"]; ok {
		t.Errorf("relayed Retry-After %q, want none: a retry fails the same way", got)
	}
	if got := resp.Header.Get(serve.HeaderShard); got != succ[0] {
		t.Errorf("answered by %q, want the owner %q", got, succ[0])
	}
	if n := f.shard(succ[1]).analyzeHits.Load(); n != 0 {
		t.Errorf("ring successor %s got %d jobs, want 0", succ[1], n)
	}
}

// TestFleetJobProxy covers the proxy-able job API: async submission
// through the gateway yields a shard-prefixed job id that any gateway
// can route for polling and cancellation.
func TestFleetJobProxy(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})
	req := &serve.AnalyzeRequest{
		Pgen:  &pgen.Config{Class: pgen.Fake, W: 16, H: 16, Seed: 4},
		Async: true,
	}
	owner := f.gw.ring.Shard(mustKey(t, req))
	resp, body := f.postAnalyze(req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if !strings.HasPrefix(v.ID, owner+"-job-") {
		t.Fatalf("job id %q lacks owner prefix %q", v.ID, owner)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Fatalf("Location %q", loc)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(f.gwTS.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", r.StatusCode, b)
		}
		if got := r.Header.Get(serve.HeaderShard); got != owner {
			t.Fatalf("poll proxied to %q, want %q", got, owner)
		}
		pv := decodeView(t, b)
		if pv.Status.Terminal() {
			if pv.Status != serve.StatusDone {
				t.Fatalf("job ended %q: %s", pv.Status, pv.Error)
			}
			if pv.Result.Manifest.Shard != owner {
				t.Fatalf("manifest shard %q", pv.Result.Manifest.Shard)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, id := range []string{"nonsense", "ghost-job-000001"} {
		r, err := http.Get(f.gwTS.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("job id %q: status %d, want 404", id, r.StatusCode)
		}
	}
}

// TestFleetDrain covers graceful gateway shutdown: an in-flight
// request completes, new requests are refused with 503, and status
// endpoints stay reachable reporting the draining state.
func TestFleetDrain(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})

	faults.SetActive(faults.New(faults.Rule{Site: faults.SiteServeWorker, Action: faults.ActLatency, Delay: 300 * time.Millisecond, Times: 1}))
	t.Cleanup(func() { faults.SetActive(nil) })

	req := &serve.AnalyzeRequest{Pgen: &pgen.Config{Class: pgen.Fake, W: 16, H: 16, Seed: 9}}
	owner := f.gw.ring.Shard(mustKey(t, req))
	type outcome struct {
		resp *http.Response
		body []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, body, err := f.tryPostAnalyze(req)
		ch <- outcome{resp, body, err}
	}()
	f.waitInFlight(owner) // in flight before the drain starts

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.gw.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d: %s", out.resp.StatusCode, out.body)
	}

	resp, body, err := f.tryPostAnalyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain 503 lacks Retry-After")
	}

	hr, err := http.Get(f.gwTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "draining" {
		t.Fatalf("healthz status %v during drain", hz["status"])
	}
}

// TestFleetClusterStatus exercises the GET /v1/cluster aggregation
// surface: ring membership, per-shard breaker state, and each shard's
// live healthz/metricsz documents with their shard identities.
func TestFleetClusterStatus(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 1}, Config{})
	resp, err := http.Get(f.gwTS.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var view struct {
		Status string `json:"status"`
		Ring   struct {
			VNodes int      `json:"vnodes"`
			Shards []string `json:"shards"`
		} `json:"ring"`
		Counters map[string]int64 `json:"counters"`
		Shards   []shardStatus    `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != "ok" || view.Ring.VNodes != vnodesPerShard || len(view.Ring.Shards) != 3 {
		t.Fatalf("cluster view header wrong: %+v", view)
	}
	if view.Counters["cluster.probes"] == 0 {
		t.Error("cluster.probes counter missing from the aggregate view")
	}
	for _, st := range view.Shards {
		if !st.Healthy || st.Breaker != "closed" {
			t.Errorf("shard %s: healthy=%v breaker=%q", st.Name, st.Healthy, st.Breaker)
		}
		var hz map[string]any
		if err := json.Unmarshal(st.Healthz, &hz); err != nil {
			t.Errorf("shard %s healthz: %v", st.Name, err)
			continue
		}
		if hz["shard"] != st.Name {
			t.Errorf("shard %s healthz reports identity %v", st.Name, hz["shard"])
		}
		var mz map[string]any
		if err := json.Unmarshal(st.Metricsz, &mz); err != nil {
			t.Errorf("shard %s metricsz: %v", st.Name, err)
			continue
		}
		if mz["shard"] != st.Name {
			t.Errorf("shard %s metricsz reports identity %v", st.Name, mz["shard"])
		}
	}
}
