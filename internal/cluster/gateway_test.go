package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{},
		{Shards: []ShardSpec{{Name: "", URL: "http://x"}}},
		{Shards: []ShardSpec{{Name: "a", URL: ""}}},
		{Shards: []ShardSpec{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}},
		{Shards: []ShardSpec{{Name: "bad-job-name", URL: "http://x"}}},
	}
	for i, cfg := range cases {
		cfg.ProbeInterval = time.Hour
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// TestGatewayAdmission413 pins the edge-admission contract: a request
// one byte past the shards' 8 MiB body limit dies at the gateway with
// 413 — no shard sees a byte of it.
func TestGatewayAdmission413(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})
	big := `{"spice": "` + strings.Repeat("*", serve.MaxBodyBytes-12) + `"}`
	requests := obs.CounterValue("serve.http.requests")
	resp, err := http.Post(f.gwTS.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 for a %d-byte body", resp.StatusCode, len(big))
	}
	if n := obs.CounterValue("serve.http.requests") - requests; n != 0 {
		t.Errorf("serve.http.requests moved by %d for an oversized request", n)
	}
	for _, sh := range f.shards {
		if n := sh.analyzeHits.Load(); n != 0 {
			t.Errorf("shard %s saw %d analyze calls for an oversized request", sh.name, n)
		}
	}
}

// TestGatewayBadRequests covers edge admission of malformed bodies.
func TestGatewayBadRequests(t *testing.T) {
	f := newFleet(t, 1, serve.Config{Workers: 1}, Config{})
	forwards := obs.CounterValue("cluster.forwards")
	for _, body := range []string{
		"{not json",
		"{}",                               // neither spice nor pgen
		`{"spice": "x", "pgen": {"w": 8}}`, // both
		`{"spice": "R1 broken"}`,           // unparsable deck
		// The shard's strict decoder, at the edge: these two used to cost
		// a parse and a forward (the first) or pass here and fail there.
		`{"pgen": {"class": "fake", "w": 16, "h": 16}, "format": "sell"}`,
		`{"pgen": {"class": "fake", "w": 16, "h": 16}} trailing-garbage`,
	} {
		resp, err := http.Post(f.gwTS.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := f.shards[0].analyzeHits.Load(); n != 0 {
		t.Errorf("shard saw %d analyze calls for malformed requests", n)
	}
	if n := obs.CounterValue("cluster.forwards") - forwards; n != 0 {
		t.Errorf("cluster.forwards advanced by %d for malformed requests", n)
	}
}

// TestGatewayAdmitOnce is the gateway row of the admit-once table
// (serve.TestAdmitOnceDifferential has the rest): one 48 µm deck sent
// twice through a two-shard gateway. The repeat is routed from the
// memo to the same shard, answered from that shard's memo, and answers
// bit for bit what a fresh standalone server answers.
func TestGatewayAdmitOnce(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("deck", pgen.Fake, 48, 48, 23))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(serve.AnalyzeRequest{Spice: d.Netlist.String(), IncludeMap: true})
	if err != nil {
		t.Fatal(err)
	}
	send := func(url string) (*http.Response, serve.JobView) {
		t.Helper()
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, read %v: %s", resp.StatusCode, err, b)
		}
		return resp, decodeView(t, b)
	}
	fresh := serve.New(serve.Config{Workers: 1})
	freshTS := httptest.NewServer(fresh.Handler())
	defer func() {
		freshTS.Close()
		_ = fresh.Close(context.Background())
	}()
	_, want := send(freshTS.URL)

	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})
	hits, misses := obs.CounterValue("cluster.route.memo_hits"), obs.CounterValue("cluster.route.memo_misses")
	r1, v1 := send(f.gwTS.URL)
	r2, v2 := send(f.gwTS.URL)
	if a, b := r1.Header.Get(serve.HeaderShard), r2.Header.Get(serve.HeaderShard); a == "" || a != b {
		t.Fatalf("the repeat moved: shards %q then %q", a, b)
	}
	if h, m := obs.CounterValue("cluster.route.memo_hits")-hits, obs.CounterValue("cluster.route.memo_misses")-misses; h != 1 || m != 1 {
		t.Errorf("routing memo: %d hits / %d misses, want 1 / 1", h, m)
	}
	m := v2.Result.Manifest
	if hit := m.Cache != nil && len(m.Cache.Events) == 1 && m.Cache.Events[0].Stage == "serve.analyze" && m.Cache.Events[0].Outcome == obs.CacheHit; !hit || len(m.Solves) != 0 {
		t.Errorf("the repeat: shard cache %+v, %d solves; want one serve.analyze hit and no solve", m.Cache, len(m.Solves))
	}
	fp := want.Result.Manifest.Config.(map[string]any)["fingerprint"]
	for i, v := range []serve.JobView{v1, v2} {
		got, w := *v.Result, *want.Result
		if cfg := got.Manifest.Config.(map[string]any); cfg["fingerprint"] != fp || fp == nil {
			t.Errorf("submission %d: manifest fingerprint %v, want %v", i+1, cfg["fingerprint"], fp)
		}
		got.Manifest, got.RuntimeSeconds, w.Manifest, w.RuntimeSeconds = nil, 0, nil, 0
		if !reflect.DeepEqual(got, w) {
			t.Errorf("submission %d through the gateway differs from the fresh server's answer", i+1)
		}
	}

	// The status document carries the memo counters with the rest.
	resp, err := http.Get(f.gwTS.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Counters["cluster.route.memo_hits"] < 1 {
		t.Errorf("GET /v1/cluster: decode %v, counters %v", err, st.Counters)
	}
}

// TestGatewayAllBreakersOpen pins the no-capacity behaviour: when
// every shard is out of rotation the gateway answers 503 with a
// Retry-After of one probe interval, the soonest a probe could bring a
// shard back — without attempting a single doomed forward.
func TestGatewayAllBreakersOpen(t *testing.T) {
	// Two shards that were never alive: closed ports, probed until both
	// are out of rotation.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the address is now guaranteed-refused
	gw := newGatewayT(t, Config{
		Shards:        []ShardSpec{{Name: "s0", URL: dead.URL}, {Name: "s1", URL: dead.URL}},
		ProbeInterval: 7 * time.Second,
	})
	for i := 0; i < failureLimit; i++ {
		gw.probeNow(context.Background())
	}
	forwards := obs.CounterValue("cluster.forwards")
	for name, state := range gw.breakerStates() {
		if state != "open" {
			t.Fatalf("breaker %s is %q after %d failed probes, want open", name, state, failureLimit)
		}
	}

	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	body, _ := json.Marshal(&serve.AnalyzeRequest{
		Pgen: &pgen.Config{Class: pgen.Fake, W: 8, H: 8, Seed: 1},
	})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q, want the 7s probe interval", got)
	}
	if n := obs.CounterValue("cluster.forwards") - forwards; n != 0 {
		t.Errorf("%d forwards to shards out of rotation", n)
	}
}

// TestGatewayRoutingDeterminism: the same request, submitted
// repeatedly through either of two gateways over the same shards, keeps
// landing on the same shard, on a routing-memo miss and on a hit alike.
// Each gateway seeds its memo's hash afresh, so this holds only while
// placement depends on the request and never on the seed.
func TestGatewayRoutingDeterminism(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 1}, Config{})
	_, second := f.addGateway(Config{})
	deck, _ := ecoPair(t, 7)
	for _, req := range []serve.AnalyzeRequest{
		{Pgen: &pgen.Config{Class: pgen.Fake, W: 16, H: 16, Seed: 7}},
		{Spice: deck},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		for g, url := range []string{f.gwTS.URL, second.URL} {
			for hit := int64(0); hit <= 1; hit++ { // a memo miss, then a hit
				hits := obs.CounterValue("cluster.route.memo_hits")
				resp, b := postBody(t, url, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("gateway %d: status %d: %s", g, resp.StatusCode, b)
				}
				if n := obs.CounterValue("cluster.route.memo_hits") - hits; n != hit {
					t.Fatalf("gateway %d: %d memo hits, want %d", g, n, hit)
				}
				got := resp.Header.Get(serve.HeaderShard)
				if want == "" {
					want = got
				}
				if got != want {
					t.Fatalf("gateway %d, memo hits %d: landed on %q, earlier submissions on %q", g, hit, got, want)
				}
			}
		}
	}
}

// TestGatewayRouteMemoIsAdvisory pins what a routing-memo hit may do:
// pick a shard and nothing else. An entry planted under a body's memo
// key stands in for a 64-bit hash collision with another body.
func TestGatewayRouteMemoIsAdvisory(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})
	shardCalls := func() (n int64) {
		for _, sh := range f.shards {
			n += sh.analyzeHits.Load()
		}
		return n
	}

	// (a) A body the shard's strict decoder rejects, memoised as if it
	// were a valid request: it is forwarded undecoded, and the shard
	// answers it with its own 400.
	valid := &serve.AnalyzeRequest{Pgen: &pgen.Config{Class: pgen.Fake, W: 16, H: 16}}
	bad := []byte(`{"pgen": {"class": "fake", "w": 16, "h": 16}, "format": "sell"}`)
	plantRoute(f.gw, bad, mustKey(t, valid))
	hits := obs.CounterValue("cluster.route.memo_hits")
	resp, b := postBody(t, f.gwTS.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("colliding invalid body: status %d, want the shard's 400: %s", resp.StatusCode, b)
	}
	if resp.Header.Get(serve.HeaderShard) == "" || shardCalls() != 1 {
		t.Errorf("colliding invalid body: shard header %q, %d shard calls; want the shard's own 400 from 1 call",
			resp.Header.Get(serve.HeaderShard), shardCalls())
	}
	if n := obs.CounterValue("cluster.route.memo_hits") - hits; n != 1 {
		t.Errorf("colliding invalid body: %d memo hits, want 1", n)
	}

	// (b) A valid deck memoised under a key that lands on the other
	// shard: it is answered there, bit for bit what its own shard
	// answers through a gateway whose memo is empty.
	d, err := pgen.Generate(pgen.DefaultConfig("deck", pgen.Fake, 48, 48, 23))
	if err != nil {
		t.Fatal(err)
	}
	req := serve.AnalyzeRequest{Spice: d.Netlist.String(), IncludeMap: true}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	home := f.gw.ring.successors(mustKey(t, &req))[0]
	stray := ""
	for i := 0; stray == ""; i++ {
		if k := fmt.Sprintf("stray-%d", i); f.gw.ring.successors(k)[0] != home {
			stray = k
		}
	}
	_, clean := f.addGateway(Config{})
	resp, b = postBody(t, clean.URL, body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(serve.HeaderShard) != home {
		t.Fatalf("clean route: status %d from %q, want 200 from %q: %s", resp.StatusCode, resp.Header.Get(serve.HeaderShard), home, b)
	}
	want := decodeView(t, b)
	plantRoute(f.gw, body, stray)
	resp, b = postBody(t, f.gwTS.URL, body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(serve.HeaderShard) == home {
		t.Fatalf("colliding deck: status %d from %q, want 200 from the shard other than %q: %s",
			resp.StatusCode, resp.Header.Get(serve.HeaderShard), home, b)
	}
	g, w := *decodeView(t, b).Result, *want.Result
	g.Manifest, g.RuntimeSeconds, w.Manifest, w.RuntimeSeconds = nil, 0, nil, 0
	if len(w.Map) == 0 || !reflect.DeepEqual(g, w) {
		t.Errorf("colliding deck: the answer from the other shard differs from its own shard's")
	}
}

// plantRoute memoises key as body's routing key, as a body whose hash
// collides with body's would find it.
func plantRoute(g *Gateway, body []byte, key string) {
	mk := g.routeMemoKey(body)
	g.memo.Put(string(mk[:]), key, routeBytes, "route")
}

// TestGatewayProbeFaultSites drives the cluster.probe fault site: an
// injected probe failure takes the target shard out of rotation
// without touching the network, and an injected delay of the 500 ms
// probe budget counts as a probe timeout.
func TestGatewayProbeFaultSites(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})

	ctx := faults.WithInjector(context.Background(), faults.New(
		faults.Rule{Site: faults.SiteClusterProbe, Action: faults.ActFail, Label: "shard0"},
		faults.Rule{Site: faults.SiteClusterProbe, Action: faults.ActLatency, Label: "shard1", Delay: probeTimeout}))
	for i := 0; i < failureLimit; i++ {
		f.gw.probeNow(ctx)
	}
	states := f.gw.breakerStates()
	if states["shard0"] != "open" {
		t.Errorf("shard0 breaker %q after injected probe failure, want open", states["shard0"])
	}
	if states["shard1"] != "open" {
		t.Errorf("shard1 breaker %q after injected probe timeout, want open", states["shard1"])
	}

	// A clean sweep (no injector) brings both back at once: a healthy
	// probe is what returns a shard to rotation.
	f.gw.probeNow(context.Background())
	states = f.gw.breakerStates()
	for name, st := range states {
		if st != "closed" {
			t.Errorf("breaker %s stuck %q after healthy probe", name, st)
		}
	}
}

// TestGatewayForwardFaultSite drives the new cluster.forward fault
// site: the first forward attempt dies as if the connection dropped,
// and the gateway hands off to the ring successor transparently.
func TestGatewayForwardFaultSite(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1}, Config{})
	req := &serve.AnalyzeRequest{Pgen: &pgen.Config{Class: pgen.Fake, W: 16, H: 16, Seed: 11}}
	succ := f.gw.ring.successors(mustKey(t, req))

	faults.SetActive(faults.New(faults.Rule{Site: faults.SiteClusterForward, Action: faults.ActFail, Label: succ[0], Times: 1}))
	t.Cleanup(func() { faults.SetActive(nil) })

	resp, body := f.postAnalyze(req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.HeaderShard); got != succ[1] {
		t.Fatalf("answered by %q, want successor %q after injected forward failure", got, succ[1])
	}
	if got := resp.Header.Get(serve.HeaderRouteAttempt); got != "2" {
		t.Fatalf("attempts %q, want 2", got)
	}
	m := decodeView(t, body).Result.Manifest
	if m.Counters["serve.handoff"] != 1 {
		t.Fatalf("handoff not recorded in manifest counters: %v", m.Counters)
	}
}
