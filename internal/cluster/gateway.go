// Package cluster is the fleet layer of the analysis service: a
// stateless gateway that fronts N internal/serve shard processes and
// routes every analysis request over a consistent-hash ring keyed by
// the design's routing fingerprint (cache.RoutingFingerprint). ECO
// neighbors — the same grid topology with edited element values —
// share a routing key, so the gateway keeps sending them to the shard
// whose artifact cache holds their warm-start donors; that cache
// affinity is the whole reason routing is content-addressed rather
// than round-robin.
//
// The gateway holds no job state of its own. Job ids carry the owning
// shard's name (serve.Config.Name), so GET/DELETE /v1/jobs/{id} is
// routed by parsing the id — any gateway replica can serve any
// follow-up request, and gateways can be scaled or restarted freely.
//
// Health is probe-driven: a background loop GETs every shard's
// /healthz on a fixed interval and feeds the results into each shard's
// circuit breaker (breaker.go). An open breaker takes the shard
// out of rotation (requests skip to the ring successor) until the
// cooldown elapses and a half-open probe closes it again. Forwarding
// failures — a dropped connection or an injected cluster.forward
// fault — also count against the breaker, and trigger a bounded
// handoff: the request is retried on the next distinct shard clockwise
// on the ring, with the origin shard's name attached in the
// serve.HeaderHandoffFrom header so the completing shard's run
// manifest records the failover. Analysis requests are deterministic
// and side-effect-free per shard, which is what makes blind re-send
// safe.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
	"irfusion/internal/spice"
)

// Gateway-level counters, in the process-global obs registry so they
// surface in /metricsz and GET /v1/cluster.
var (
	cRequests    = obs.GlobalCounter("cluster.http.requests")
	cForwards    = obs.GlobalCounter("cluster.forwards")
	cForwardFail = obs.GlobalCounter("cluster.forward.failures")
	cHandoffs    = obs.GlobalCounter("cluster.handoffs")
	cRejected    = obs.GlobalCounter("cluster.rejected")
	cProbes      = obs.GlobalCounter("cluster.probes")
	cProbeFail   = obs.GlobalCounter("cluster.probe.failures")
	cMemoHits    = obs.GlobalCounter("cluster.route.memo_hits")
	cMemoMisses  = obs.GlobalCounter("cluster.route.memo_misses")
)

// The routing memo is a private cache.Cache of routeMemoBytes; an entry
// (seeded 64-bit body hash → routing key) is accounted at routeBytes.
const routeBytes, routeMemoBytes = 256, 4 << 20

// ShardSpec names one shard and its base URL ("http://host:port").
type ShardSpec struct {
	Name string
	URL  string
}

// Config sizes the gateway. Zero values take the documented defaults.
type Config struct {
	// Shards is the fleet membership: unique names, reachable base
	// URLs. The ring is built once from these names; an unhealthy
	// shard is skipped by breaker state, never removed from the ring,
	// so key placement stays stable across incidents.
	Shards []ShardSpec
	// MaxBodyBytes is the gateway's own admission limit, enforced
	// before any shard is contacted. Default 8 MiB (the serve
	// default); set it at or below the shards' limit so oversized
	// requests die at the edge.
	MaxBodyBytes int64
	// ProbeInterval is the health-probe period. 0 means the 1s
	// default; negative disables the background loop entirely (tests
	// drive probes synchronously with probeNow).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each shard health probe. Default 500ms.
	ProbeTimeout time.Duration
	// BreakerThreshold and BreakerCooldown configure the per-shard
	// circuit breakers (consecutive failures to open; time until a
	// half-open probe). Defaults 3 and 5s — the serve-layer defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// shardState is the gateway's live view of one shard.
type shardState struct {
	name    string
	url     string
	breaker *breaker

	mu        sync.Mutex
	healthy   bool
	lastErr   string
	lastProbe time.Time
}

func (s *shardState) setProbe(healthy bool, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healthy = healthy
	s.lastErr = errMsg
	s.lastProbe = time.Now()
}

func (s *shardState) probeView() (healthy bool, errMsg string, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy, s.lastErr, s.lastProbe
}

// Gateway is the cluster front end. Construct with New, mount Handler
// on an http.Server, stop with Close.
type Gateway struct {
	cfg    Config
	ring   *ring
	shards map[string]*shardState
	order  []string // shard names in config order, for status output
	// client forwards, probes and fetches. It has no overall timeout:
	// analysis requests legitimately run for minutes, and each request's
	// context still propagates cancellation.
	client *http.Client
	memo   *cache.Cache // routeMemoKey(body) → routing key
	seed   maphash.Seed // this process's secret routing-memo seed
	mux    *http.ServeMux
	start  time.Time

	mu       sync.Mutex // guards draining against inflight.Add
	draining bool

	inflight   sync.WaitGroup
	stopProbes chan struct{}
	probes     sync.WaitGroup
}

// New validates the fleet spec, builds the ring, and starts the probe
// loop (unless ProbeInterval is negative).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(cfg.Shards))
	shards := make(map[string]*shardState, len(cfg.Shards))
	for _, sp := range cfg.Shards {
		if sp.Name == "" || sp.URL == "" {
			return nil, fmt.Errorf("cluster: shard spec %+v needs both name and url", sp)
		}
		if strings.Contains(sp.Name, "-job-") {
			// Job routing splits ids on the last "-job-"; a shard name
			// containing it would make ids ambiguous.
			return nil, fmt.Errorf("cluster: shard name %q must not contain %q", sp.Name, "-job-")
		}
		if _, dup := shards[sp.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sp.Name)
		}
		shards[sp.Name] = &shardState{
			name: sp.Name, url: strings.TrimRight(sp.URL, "/"),
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
		names = append(names, sp.Name)
	}
	g := &Gateway{
		cfg:        cfg,
		ring:       newRing(names),
		shards:     shards,
		order:      names,
		client:     &http.Client{},
		memo:       cache.New(routeMemoBytes, 0),
		seed:       maphash.MakeSeed(),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		stopProbes: make(chan struct{}),
	}
	g.routes()
	if cfg.ProbeInterval > 0 {
		g.probes.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler tree.
func (g *Gateway) Handler() http.Handler { return g.mux }

func (g *Gateway) routes() {
	g.mux.HandleFunc("POST /v1/analyze", g.track(g.handleAnalyze))
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.track(g.handleJobProxy))
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.track(g.handleJobProxy))
	// Status endpoints stay reachable while draining: operators watch
	// them to decide when shutdown is safe.
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metricsz", g.handleMetricsz)
	g.mux.HandleFunc("GET /v1/cluster", g.handleCluster)
}

// track wraps proxied endpoints with drain admission and in-flight
// accounting: the WaitGroup add happens under the same mutex Close
// takes, so a request is either rejected as draining or fully counted.
func (g *Gateway) track(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g.mu.Lock()
		if g.draining {
			g.mu.Unlock()
			cRejected.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "gateway draining")
			return
		}
		g.inflight.Add(1)
		g.mu.Unlock()
		defer g.inflight.Done()
		h(w, r)
	}
}

// Close drains the gateway: new proxied requests are rejected with
// 503, the probe loop stops, and the call returns when every in-flight
// forward has completed or ctx expires. In-flight requests are not
// force-cancelled — their own client contexts govern them.
func (g *Gateway) Close(ctx context.Context) error {
	g.mu.Lock()
	already := g.draining
	g.draining = true
	if !already {
		close(g.stopProbes)
	}
	g.mu.Unlock()
	g.probes.Wait()

	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone is the only failure; nothing to do
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleAnalyze admission-checks the request at the edge, derives its
// routing key — once per distinct body: the key is memoised under
// routeMemoKey, so a byte-identical resubmission is routed without
// being decoded or parsed — and forwards the bytes along the ring with
// bounded handoff. No digest travels with them: the shard hashes the
// body itself rather than trust a header.
func (g *Gateway) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	body, code, err := serve.ReadBody(w, r, g.cfg.MaxBodyBytes)
	if err != nil {
		if code == http.StatusRequestEntityTooLarge {
			cRejected.Inc() // dies here, at the edge: no shard sees a byte of it
		}
		httpError(w, code, "%v", err)
		return
	}
	mk := g.routeMemoKey(body)
	v, _ := g.memo.Get(string(mk[:]))
	key, hit := v.(string)
	if hit {
		cMemoHits.Inc()
	} else {
		cMemoMisses.Inc()
		req, err := serve.DecodeRequest(body)
		if err == nil {
			key, err = routingKey(req)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		g.memo.Put(string(mk[:]), key, routeBytes, "route")
	}
	g.forward(w, r, key, body)
}

// routeMemoKey is the routing memo's key for a body: its 64-bit
// maphash under the gateway's per-process seed, one pass at memory
// speed. A collision can only pick a shard, never hand out an answer:
// the body goes to the colliding entry's shard, which admits it itself
// (under its SHA-256) and answers or rejects it on its own. The seed
// never leaves the process, so a client cannot aim a collision.
func (g *Gateway) routeMemoKey(body []byte) (k [8]byte) {
	binary.LittleEndian.PutUint64(k[:], maphash.Bytes(g.seed, body))
	return k
}

// routingKey derives the consistent-hash key of an analysis request.
// SPICE decks key on cache.RoutingFingerprint — geometry plus
// value-free topology — so an ECO value edit keeps its key and its
// shard. Pgen requests key on the generator configuration, which fully
// determines the design.
func routingKey(req *serve.AnalyzeRequest) (string, error) {
	hasSpice, hasPgen := req.Spice != "", req.Pgen != nil
	if hasSpice == hasPgen {
		return "", errors.New("exactly one of \"spice\" and \"pgen\" must be set")
	}
	if hasPgen {
		c := req.Pgen
		sum := sha256.Sum256(fmt.Appendf(nil, "pgen|class=%s|%dx%d|seed=%d|vdd=%s|layers=%d",
			c.Class, c.W, c.H, c.Seed, spice.FormatValue(c.VDD), len(c.Layers)))
		return hex.EncodeToString(sum[:]), nil
	}
	nl, err := spice.ParseString(req.Spice)
	if err != nil {
		return "", fmt.Errorf("spice: %w", err)
	}
	size := serve.InferDieSize(nl)
	if size <= 0 {
		size = req.Resolution
	}
	return cache.RoutingFingerprint(&pgen.Design{
		W: size, H: size,
		VDD:     serve.PadVoltage(nl),
		Netlist: nl,
	}), nil
}

// forward walks the ring successors of key, skipping shards with open
// breakers, and retries on the next distinct shard after a transport
// failure or a 503, until every successor has had its one attempt.
// The first shard to produce any other response wins.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	attempts := 0
	prev := "" // shard whose failure the next attempt inherits
	var tried []string
	for _, name := range g.ring.successors(key) {
		sh := g.shards[name]
		if !sh.breaker.allow() {
			continue // breaker open: out of rotation until cooldown
		}
		attempts++
		if attempts > 1 {
			cHandoffs.Inc()
		}
		cForwards.Inc()
		resp, err := g.send(r, sh, body, attempts, prev)
		if err != nil {
			// Transport-level failure: the shard is unreachable or the
			// connection died mid-request. Penalize its breaker and hand
			// the request to the ring successor.
			sh.breaker.record(false)
			cForwardFail.Inc()
			prev = name
			tried = append(tried, name)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The shard is alive but shedding load (queue full,
			// draining, or its solve ladder is exhausted). Hand off
			// without a breaker penalty — liveness probes own that
			// signal, and a saturated queue recovers on its own.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			prev = name
			tried = append(tried, name)
			continue
		}
		sh.breaker.record(true)
		g.relay(w, resp, name, attempts)
		return
	}
	cRejected.Inc()
	w.Header().Set("Retry-After", g.retryAfterSeconds())
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": "no shard available for this key",
		"tried": tried,
	})
}

// send issues one forward attempt. The cluster.forward fault site
// fires first (labeled with the shard name): ActFail simulates a
// dropped connection without touching the network.
func (g *Gateway) send(r *http.Request, sh *shardState, body []byte, attempt int, prev string) (*http.Response, error) {
	ctx := r.Context()
	if f := faults.ActiveOr(ctx).Fire(faults.SiteClusterForward, sh.name); f != nil && f.Action == faults.ActFail {
		return nil, f.Error()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, sh.url+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: build forward request: %w", err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(serve.HeaderRouteAttempt, strconv.Itoa(attempt))
	if prev != "" {
		req.Header.Set(serve.HeaderHandoffFrom, prev)
	}
	return g.client.Do(req)
}

// relay copies a shard response to the client, stamping which shard
// answered and how many attempts it took.
func (g *Gateway) relay(w http.ResponseWriter, resp *http.Response, shardName string, attempts int) {
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(serve.HeaderShard, shardName)
	w.Header().Set(serve.HeaderRouteAttempt, strconv.Itoa(attempts))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // client gone is the only failure
}

// handleJobProxy routes job lookups and cancellations to the owning
// shard, parsed from the id's shard-name prefix. Job state lives on
// exactly one shard, so there is no handoff here: an unreachable owner
// is a 502.
func (g *Gateway) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	id := r.PathValue("id")
	name, ok := shardOfJob(id)
	if !ok {
		httpError(w, http.StatusNotFound, "job id %q carries no shard prefix", id)
		return
	}
	sh, ok := g.shards[name]
	if !ok {
		httpError(w, http.StatusNotFound, "job id %q names unknown shard %q", id, name)
		return
	}
	resp, err := g.send(r, sh, nil, 1, "")
	if err != nil {
		cForwardFail.Inc()
		httpError(w, http.StatusBadGateway, "shard %s unreachable: %v", name, err)
		return
	}
	g.relay(w, resp, name, 1)
}

// breakerStates snapshots every shard's breaker position, for the
// status endpoints.
func (g *Gateway) breakerStates() map[string]string {
	out := make(map[string]string, len(g.order))
	for _, name := range g.order {
		out[name] = g.shards[name].breaker.position()
	}
	return out
}

// shardOfJob extracts the shard name from a prefixed job id
// ("shard2-job-000123" → "shard2").
func shardOfJob(id string) (string, bool) {
	idx := strings.LastIndex(id, "-job-")
	if idx <= 0 {
		return "", false
	}
	return id[:idx], true
}

// probeLoop drives periodic health probes until Close.
func (g *Gateway) probeLoop() {
	defer g.probes.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stopProbes:
			return
		case <-t.C:
			g.probeNow(context.Background())
		}
	}
}

// probeNow probes every shard's /healthz once, synchronously, feeding
// the results into the shards' breakers. The background loop calls it on
// its interval; tests call it directly for deterministic state.
func (g *Gateway) probeNow(ctx context.Context) {
	for _, name := range g.order {
		g.probeShard(ctx, g.shards[name])
	}
}

func (g *Gateway) probeShard(ctx context.Context, sh *shardState) {
	cProbes.Inc()
	healthy, errMsg := g.probeOnce(ctx, sh)
	if !healthy {
		cProbeFail.Inc()
	}
	// Probes feed the breaker directly, without the Allow gate: a
	// failed probe counts toward opening it, and a successful probe is
	// authoritative liveness evidence that closes it immediately
	// (reset) instead of waiting out the cooldown for a half-open
	// admission.
	if healthy {
		sh.breaker.reset()
	} else {
		sh.breaker.record(false)
	}
	sh.setProbe(healthy, errMsg)
}

// probeOnce performs one health probe. The cluster.probe fault site
// fires first (labeled with the shard name): ActFail fails the probe
// outright, and ActLatency sleeps — a delay at or past ProbeTimeout
// counts as a probe timeout, simulating a wedged shard without a slow
// test server.
func (g *Gateway) probeOnce(ctx context.Context, sh *shardState) (bool, string) {
	if f := faults.ActiveOr(ctx).Fire(faults.SiteClusterProbe, sh.name); f != nil {
		switch f.Action {
		case faults.ActFail:
			return false, f.Error().Error()
		case faults.ActLatency, faults.ActStall:
			if err := f.Sleep(ctx); err != nil {
				return false, err.Error()
			}
			if f.Delay >= g.cfg.ProbeTimeout {
				return false, fmt.Sprintf("probe exceeded %v budget (injected %v delay)", g.cfg.ProbeTimeout, f.Delay)
			}
		}
	}
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.url+"/healthz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	if resp.StatusCode != http.StatusOK {
		// A draining shard answers 503: reachable, but it must leave
		// rotation, so the probe counts as unhealthy.
		return false, fmt.Sprintf("healthz status %d", resp.StatusCode)
	}
	return true, ""
}

// handleHealthz reports the gateway's own liveness plus a one-line
// fleet summary.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	healthy := 0
	for _, name := range g.order {
		if h, _, _ := g.shards[name].probeView(); h {
			healthy++
		}
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"role":           "gateway",
		"uptime_seconds": time.Since(g.start).Seconds(),
		"shards":         len(g.order),
		"shards_healthy": healthy,
		"breakers":       g.breakerStates(),
	})
}

// handleMetricsz reports the gateway's cluster.* counters and breaker
// states. Shard metrics are aggregated by GET /v1/cluster, not here —
// this endpoint describes the gateway process itself.
func (g *Gateway) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	counters := map[string]int64{}
	for name, v := range obs.GlobalCounters() {
		if strings.HasPrefix(name, "cluster.") {
			counters[name] = v
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"role":     "gateway",
		"counters": counters,
		"gauges": map[string]float64{
			"cluster.uptime_seconds": time.Since(g.start).Seconds(),
			"cluster.shards":         float64(len(g.order)),
		},
		"breakers": g.breakerStates(),
	})
}

// shardStatus is one shard's entry in the GET /v1/cluster response.
type shardStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
	// LastProbeError is the most recent probe failure ("" when the
	// last probe succeeded).
	LastProbeError string `json:"last_probe_error,omitempty"`
	// LastProbeAgeSeconds is the age of the newest probe result; -1
	// before the first probe.
	LastProbeAgeSeconds float64 `json:"last_probe_age_seconds"`
	// Healthz and Metricsz are the shard's own status documents,
	// fetched live for this response; absent when the fetch failed.
	Healthz  json.RawMessage `json:"healthz,omitempty"`
	Metricsz json.RawMessage `json:"metricsz,omitempty"`
	// FetchError reports a failed live status fetch.
	FetchError string `json:"fetch_error,omitempty"`
}

// handleCluster aggregates the fleet: ring membership, per-shard
// breaker state and probe history, and each shard's live /healthz and
// /metricsz documents.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	shards := make([]shardStatus, 0, len(g.order))
	for _, name := range g.order {
		sh := g.shards[name]
		healthy, lastErr, at := sh.probeView()
		st := shardStatus{
			Name:                name,
			URL:                 sh.url,
			Healthy:             healthy,
			Breaker:             sh.breaker.position(),
			LastProbeError:      lastErr,
			LastProbeAgeSeconds: -1,
		}
		if !at.IsZero() {
			st.LastProbeAgeSeconds = time.Since(at).Seconds()
		}
		if hz, err := g.fetchJSON(r.Context(), sh, "/healthz"); err == nil {
			st.Healthz = hz
		} else {
			st.FetchError = err.Error()
		}
		if mz, err := g.fetchJSON(r.Context(), sh, "/metricsz"); err == nil {
			st.Metricsz = mz
		}
		shards = append(shards, st)
	}
	counters := map[string]int64{}
	for name, v := range obs.GlobalCounters() {
		if strings.HasPrefix(name, "cluster.") {
			counters[name] = v
		}
	}
	ringShards := append([]string(nil), g.ring.shards...)
	sort.Strings(ringShards)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(g.start).Seconds(),
		"ring": map[string]any{
			"vnodes": vnodesPerShard,
			"shards": ringShards,
		},
		"counters": counters,
		"shards":   shards,
	})
}

// fetchJSON retrieves one shard status document under the probe
// timeout. A shard answering 503 (draining) still returns its body —
// that state is exactly what the operator wants to see.
func (g *Gateway) fetchJSON(ctx context.Context, sh *shardState, path string) (json.RawMessage, error) {
	fctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, sh.url+path, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: build status request: %w", err)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: read %s: %w", path, err)
	}
	if !json.Valid(b) {
		return nil, fmt.Errorf("cluster: %s returned invalid JSON", path)
	}
	return json.RawMessage(b), nil
}

// retryAfterSeconds renders the breaker cooldown as a Retry-After
// value (at least 1 second) — the soonest a rejected request could
// find a half-open shard.
func (g *Gateway) retryAfterSeconds() string {
	secs := int(g.cfg.BreakerCooldown / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
