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
// /healthz on a fixed interval into the shard's one health record, a
// count of consecutive failures. A failed forward — a dropped
// connection or an injected cluster.forward fault — counts too.
// failureLimit failures in a row take the shard out of rotation
// (requests skip to the ring successor) until a probe succeeds. A
// failed forward, or a 503 from a full queue or a drain, is handed to
// the next distinct shard clockwise on the ring, with the origin
// shard's name in the serve.HeaderHandoffFrom header so the completing
// shard's run manifest records the failover. Analysis requests are
// deterministic and side-effect-free per shard, which is what makes
// blind re-send safe, and also why a 503 for an exhausted solve ladder
// is relayed, not handed off.
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
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	cRequests     = obs.GlobalCounter("cluster.http.requests")
	cForwards     = obs.GlobalCounter("cluster.forwards")
	cForwardFail  = obs.GlobalCounter("cluster.forward.failures")
	cHandoffs     = obs.GlobalCounter("cluster.handoffs")
	cRejected     = obs.GlobalCounter("cluster.rejected")
	cProbes       = obs.GlobalCounter("cluster.probes")
	cProbeFail    = obs.GlobalCounter("cluster.probe.failures")
	cBreakerTrips = obs.GlobalCounter("cluster.breaker.trips") // shards taken out of rotation
	cMemoHits     = obs.GlobalCounter("cluster.route.memo_hits")
	cMemoMisses   = obs.GlobalCounter("cluster.route.memo_misses")
)

const (
	// The routing memo is a private cache.Cache of routeMemoBytes; an
	// entry (seeded 64-bit body hash → routing key) is accounted at
	// routeBytes.
	routeBytes, routeMemoBytes = 256, 4 << 20
	// failureLimit consecutive failed probes or forwards take a shard
	// out of rotation.
	failureLimit = 3
	// probeTimeout bounds each health probe and status fetch.
	probeTimeout = 500 * time.Millisecond
)

// ShardSpec names one shard and its base URL ("http://host:port").
type ShardSpec struct {
	Name string
	URL  string
}

// Config is the fleet and its probe period.
type Config struct {
	// Shards is the fleet membership: unique names, reachable base
	// URLs. The ring is built once from these names; a shard out of
	// rotation is skipped, never removed from the ring, so key
	// placement stays stable across incidents.
	Shards []ShardSpec
	// ProbeInterval is the health-probe period; ≤ 0 means 1s.
	ProbeInterval time.Duration
}

// shardState is the gateway's one health record of a shard: routing,
// /healthz, /metricsz and GET /v1/cluster all read it.
type shardState struct {
	name string
	url  string

	mu        sync.Mutex
	failures  int    // consecutive failed probes and forwards
	lastErr   string // the last probe's error; "" when it succeeded
	lastProbe time.Time
}

// fail counts one failed probe or forward; the failureLimit-th in a
// row takes the shard out of rotation.
func (s *shardState) fail() {
	s.failures++
	if s.failures == failureLimit {
		cBreakerTrips.Inc()
	}
}

// forwarded records a forward's transport outcome. A success ends a
// failure streak, but only a probe brings back a shard that is out.
func (s *shardState) forwarded(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.fail()
	} else if s.failures < failureLimit {
		s.failures = 0
	}
}

// probed records a probe's outcome: a healthy probe puts the shard
// back in rotation at once.
func (s *shardState) probed(errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastErr, s.lastProbe = errMsg, time.Now()
	if errMsg == "" {
		s.failures = 0
	} else {
		s.fail()
	}
}

// view snapshots the record: whether the shard is in rotation, and
// its last probe's verdict, error and time (zero before the first).
func (s *shardState) view() (inRotation, healthy bool, errMsg string, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures < failureLimit, !s.lastProbe.IsZero() && s.lastErr == "", s.lastErr, s.lastProbe
}

// Gateway is the cluster front end. Construct with New, mount Handler
// on an http.Server, stop with Close.
type Gateway struct {
	interval time.Duration // probe period
	ring     *ring
	shards   map[string]*shardState
	order    []string // shard names in config order, for status output
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
// loop.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
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
		shards[sp.Name] = &shardState{name: sp.Name, url: strings.TrimRight(sp.URL, "/")}
		names = append(names, sp.Name)
	}
	g := &Gateway{
		interval:   cfg.ProbeInterval,
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
	g.probes.Add(1)
	go g.probeLoop()
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
			serve.WriteError(w, http.StatusServiceUnavailable, "gateway draining")
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

// handleAnalyze admission-checks the request at the edge, derives its
// routing key — once per distinct body: the key is memoised under
// routeMemoKey, so a byte-identical resubmission is routed without
// being decoded or parsed — and forwards the bytes along the ring with
// bounded handoff. No digest travels with them: the shard hashes the
// body itself rather than trust a header.
func (g *Gateway) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	rb, code, err := serve.ReadBody(w, r, serve.MaxBodyBytes)
	if err != nil {
		if code == http.StatusRequestEntityTooLarge {
			cRejected.Inc() // dies here, at the edge: no shard sees a byte of it
		}
		serve.WriteError(w, code, "%v", err)
		return
	}
	defer rb.Release()
	mk := g.routeMemoKey(rb.Bytes())
	v, _ := g.memo.Get(string(mk[:]))
	key, hit := v.(string)
	if hit {
		cMemoHits.Inc()
	} else {
		cMemoMisses.Inc()
		req, err := serve.DecodeRequest(rb.Bytes())
		if err == nil {
			key, err = routingKey(req)
		}
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		g.memo.Put(string(mk[:]), key, routeBytes, "route")
	}
	g.forward(w, r, key, rb)
}

// attemptBody is one forward attempt's reader of a pooled body, which it
// holds until the transport closes it: net/http may still be writing an
// attempt's body after Do returns, and a buffer back in the pool then
// could send another request's bytes to a shard.
type attemptBody struct {
	*bytes.Reader
	body   *serve.Body
	closed atomic.Bool
}

func (a *attemptBody) Close() error {
	if a.closed.CompareAndSwap(false, true) {
		a.body.Release()
	}
	return nil
}

// routeMemoKey is the routing memo's key for a body: its 64-bit
// maphash under the gateway's per-process seed, one pass at memory
// speed. A collision can only pick a shard, never hand out an answer:
// the body goes to the colliding entry's shard, which admits it itself
// (its memo checks the bytes) and answers or rejects it on its own. The
// seed never leaves the process, so a client cannot aim a collision.
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

// forward walks the ring successors of key, skipping shards out of
// rotation, and hands the request to the next one after a transport
// failure or a 503 that a successor could answer (a full queue, a
// drain), until every successor has had its one attempt. The first
// shard to produce any other response wins, and so does a 503 for an
// exhausted solve ladder: the pipeline is deterministic, so every
// successor would fail the same way.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, key string, body *serve.Body) {
	attempts := 0
	prev := "" // shard whose failure the next attempt inherits
	var tried []string
	for _, name := range g.ring.successors(key) {
		sh := g.shards[name]
		if in, _, _, _ := sh.view(); !in {
			continue
		}
		attempts++
		if attempts > 1 {
			cHandoffs.Inc()
		}
		cForwards.Inc()
		resp, err := g.send(r, sh, body, attempts, prev)
		if err != nil {
			// The shard is unreachable or the connection died
			// mid-request: count it against the shard.
			sh.forwarded(err)
			cForwardFail.Inc()
		} else if resp.StatusCode != http.StatusServiceUnavailable {
			sh.forwarded(nil)
			g.relay(w, resp, name, attempts)
			return
		} else if exhausted(resp) {
			g.relay(w, resp, name, attempts)
			return
		}
		// A 503 takes no penalty: the shard is alive and shedding
		// load, and the probes own its liveness.
		prev = name
		tried = append(tried, name)
	}
	cRejected.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(g.interval.Seconds()))))
	serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error": "no shard available for this key",
		"tried": tried,
	})
}

// exhausted reports whether a 503 is a failed job whose solve ladder
// was exhausted. It reads the body and leaves resp ready to relay, or
// closed when the answer is no.
func exhausted(resp *http.Response) bool {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v struct {
		ErrorKind string `json:"error_kind"`
	}
	if err != nil || json.Unmarshal(b, &v) != nil || v.ErrorKind != serve.ErrKindExhausted {
		return false
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return true
}

// send issues one forward attempt, carrying body unless it is nil. The
// cluster.forward fault site fires first (labeled with the shard name):
// ActFail simulates a dropped connection without touching the network.
func (g *Gateway) send(r *http.Request, sh *shardState, body *serve.Body, attempt int, prev string) (*http.Response, error) {
	ctx := r.Context()
	if f := faults.ActiveOr(ctx).Fire(faults.SiteClusterForward, sh.name); f != nil && f.Action == faults.ActFail {
		return nil, f.Error()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, sh.url+r.URL.Path, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: build forward request: %w", err)
	}
	if body != nil {
		req.ContentLength = int64(len(body.Bytes()))
		req.GetBody = func() (io.ReadCloser, error) { // the transport's re-sends call it too
			body.Hold()
			return &attemptBody{Reader: bytes.NewReader(body.Bytes()), body: body}, nil
		}
		req.Body, _ = req.GetBody()
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
		serve.WriteError(w, http.StatusNotFound, "job id %q carries no shard prefix", id)
		return
	}
	sh, ok := g.shards[name]
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "job id %q names unknown shard %q", id, name)
		return
	}
	resp, err := g.send(r, sh, nil, 1, "")
	if err != nil {
		cForwardFail.Inc()
		serve.WriteError(w, http.StatusBadGateway, "shard %s unreachable: %v", name, err)
		return
	}
	g.relay(w, resp, name, 1)
}

// breaker names a shard's rotation as the status endpoints report it.
func breaker(inRotation bool) string {
	if inRotation {
		return "closed"
	}
	return "open"
}

// breakerStates snapshots every shard's breaker, for the status
// endpoints.
func (g *Gateway) breakerStates() map[string]string {
	out := make(map[string]string, len(g.order))
	for _, name := range g.order {
		in, _, _, _ := g.shards[name].view()
		out[name] = breaker(in)
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
	t := time.NewTicker(g.interval)
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

// probeNow probes every shard's /healthz once, synchronously, into
// the shards' health records. The background loop calls it on its
// interval; tests call it directly for deterministic state.
func (g *Gateway) probeNow(ctx context.Context) {
	for _, name := range g.order {
		sh := g.shards[name]
		cProbes.Inc()
		errMsg := g.probeOnce(ctx, sh)
		if errMsg != "" {
			cProbeFail.Inc()
		}
		sh.probed(errMsg)
	}
}

// probeOnce performs one health probe and returns its error, "" when
// the shard is healthy. The cluster.probe fault site fires first
// (labeled with the shard name): ActFail fails the probe outright, and
// ActLatency sleeps — a delay at or past probeTimeout counts as a probe
// timeout, simulating a wedged shard without a slow test server.
func (g *Gateway) probeOnce(ctx context.Context, sh *shardState) string {
	if f := faults.ActiveOr(ctx).Fire(faults.SiteClusterProbe, sh.name); f != nil {
		switch f.Action {
		case faults.ActFail:
			return f.Error().Error()
		case faults.ActLatency, faults.ActStall:
			if err := f.Sleep(ctx); err != nil {
				return err.Error()
			}
			if f.Delay >= probeTimeout {
				return fmt.Sprintf("probe exceeded %v budget (injected %v delay)", probeTimeout, f.Delay)
			}
		}
	}
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, sh.url+"/healthz", nil)
	if err != nil {
		return err.Error()
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
	if resp.StatusCode != http.StatusOK {
		// A draining shard answers 503: reachable, but it must leave
		// rotation, so the probe counts as unhealthy.
		return fmt.Sprintf("healthz status %d", resp.StatusCode)
	}
	return ""
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
		if _, h, _, _ := g.shards[name].view(); h {
			healthy++
		}
	}
	serve.WriteJSON(w, code, map[string]any{
		"status":         status,
		"role":           "gateway",
		"uptime_seconds": time.Since(g.start).Seconds(),
		"shards":         len(g.order),
		"shards_healthy": healthy,
		"breakers":       g.breakerStates(),
	})
}

// clusterCounters snapshots the process's cluster.* counters.
func clusterCounters() map[string]int64 {
	out := map[string]int64{}
	for name, v := range obs.GlobalCounters() {
		if strings.HasPrefix(name, "cluster.") {
			out[name] = v
		}
	}
	return out
}

// handleMetricsz reports the gateway's cluster.* counters and shard
// breakers. Shard metrics are aggregated by GET /v1/cluster, not here —
// this endpoint describes the gateway process itself.
func (g *Gateway) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"role":     "gateway",
		"counters": clusterCounters(),
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

// handleCluster aggregates the fleet: ring membership, each shard's
// health record, and each shard's live /healthz and /metricsz
// documents.
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
		in, healthy, lastErr, at := sh.view()
		st := shardStatus{
			Name:                name,
			URL:                 sh.url,
			Healthy:             healthy,
			Breaker:             breaker(in),
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
	ringShards := append([]string(nil), g.ring.shards...)
	sort.Strings(ringShards)
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(g.start).Seconds(),
		"ring": map[string]any{
			"vnodes": vnodesPerShard,
			"shards": ringShards,
		},
		"counters": clusterCounters(),
		"shards":   shards,
	})
}

// fetchJSON retrieves one shard status document under the probe
// timeout. A shard answering 503 (draining) still returns its body —
// that state is exactly what the operator wants to see.
func (g *Gateway) fetchJSON(ctx context.Context, sh *shardState, path string) (json.RawMessage, error) {
	fctx, cancel := context.WithTimeout(ctx, probeTimeout)
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
