package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/core"
	"irfusion/internal/faults"
	"irfusion/internal/grid"
	"irfusion/internal/journal"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

// Analysis modes accepted by POST /v1/analyze.
const (
	// ModeNumerical runs the pure AMG-PCG (or budgeted SSOR-PCG)
	// numerical analysis.
	ModeNumerical = "numerical"
	// ModeFused runs the fused numerical+ML pipeline; requires the
	// server to be configured with a trained Analyzer.
	ModeFused = "fused"
)

// maxIters bounds the per-request iteration budget (admission limit).
const maxIters = 100000

// Admission limits on the pgen fields that set the generator's work,
// with headroom over its defaults (5 layers, 4 hotspots, 2 blockages):
// a request is generated on the handler goroutine, before any deadline.
const (
	maxPgenLayers    = 16
	maxPgenHotspots  = 64
	maxPgenBlockages = 16
)

// pgenCardBytes is taken as the least a generated card costs (a 128 µm
// real deck averages 37 bytes): a pgen request whose pgen.MaxCards
// passes the body limit over it is refused before generating.
const pgenCardBytes = 32

// Cluster routing headers, set by the internal/cluster gateway and
// read here. They are defined in serve (the lower layer) so the shard
// can record handoffs without importing the cluster package.
const (
	// HeaderShard is attached by the gateway to every proxied response:
	// the name of the shard that actually answered.
	HeaderShard = "X-Irfusion-Shard"
	// HeaderRouteAttempt counts the gateway's forward attempts for this
	// request, starting at 1; values above 1 mean ring handoff occurred.
	HeaderRouteAttempt = "X-Irfusion-Route-Attempt"
	// HeaderHandoffFrom names the shard a request was originally routed
	// to when it reaches a ring successor after a failure handoff. The
	// receiving shard records it in the job's run manifest (counter
	// serve.handoff, config key handoff_from).
	HeaderHandoffFrom = "X-Irfusion-Handoff-From"
)

// AnalyzeRequest is the body of POST /v1/analyze. Exactly one of
// Spice (a SPICE power-grid deck as text) and Pgen (a generator
// configuration) must be set.
type AnalyzeRequest struct {
	// Spice is a SPICE deck in the ICCAD-2023 contest format.
	Spice string `json:"spice,omitempty"`
	// Pgen generates a synthetic design server-side. Omitted fields
	// take the pgen defaults (the default layer stack in particular).
	Pgen *pgen.Config `json:"pgen,omitempty"`
	// Mode is "numerical" (default) or "fused".
	Mode string `json:"mode,omitempty"`
	// Iters is the PCG iteration budget; 0 means solve to
	// convergence (numerical mode) or the model's configured rough
	// budget (fused mode).
	Iters int `json:"iters,omitempty"`
	// Precond selects the budgeted-solve preconditioner: "amg"
	// (default) or "ssor". Ignored by fused mode.
	Precond string `json:"precond,omitempty"`
	// Resolution is the raster size of the returned map (numerical
	// mode; default: the design's die size). Fused mode always
	// rasters at the model's training resolution.
	Resolution int `json:"resolution,omitempty"`
	// Async makes the call return 202 with a job id immediately;
	// poll GET /v1/jobs/{id} for the result.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds the job's wall time; on expiry the solver
	// stops mid-iteration and the job fails with a partial manifest.
	// 0 uses the server's 2-minute default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeMap returns the full row-major drop map (resolution²
	// float64s) in the result, not just its summary statistics.
	IncludeMap bool `json:"include_map,omitempty"`
	// OmitManifest drops the per-request run manifest from the
	// result (manifests are attached by default).
	OmitManifest bool `json:"omit_manifest,omitempty"`
}

// AnalyzeResult is the payload of a finished job. A cancelled or
// timed-out job still carries the manifest (with the partial solver
// residual history); the map statistics are then absent.
type AnalyzeResult struct {
	Design         string        `json:"design,omitempty"`
	Mode           string        `json:"mode,omitempty"`
	Resolution     int           `json:"resolution,omitempty"`
	MaxDropVolts   float64       `json:"max_drop_volts,omitempty"`
	MeanDropVolts  float64       `json:"mean_drop_volts,omitempty"`
	HotspotYX      *[2]int       `json:"hotspot_yx,omitempty"`
	Residual       float64       `json:"residual,omitempty"`
	RuntimeSeconds float64       `json:"runtime_seconds,omitempty"`
	Map            []float64     `json:"map,omitempty"`
	Manifest       *obs.Manifest `json:"manifest,omitempty"`
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
}

// jobContext derives a job's context from the server base context,
// bounded by the request's timeout_ms or else defaultTimeout. Built in
// a single step so exactly one cancel func exists per job — the old
// two-step form (WithCancel, then conditionally reassigning from
// WithTimeout) abandoned its first context, leaving it registered on
// baseCtx for the life of the server.
func (s *Server) jobContext(timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := defaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(s.baseCtx, timeout)
}

// WriteJSON writes v as the indented JSON body of a code response, the
// answer format of both front doors (this server and the cluster gateway).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is out: a failure here — the client gone, a value
	// encoding/json refuses (NaN, ±Inf) — can only cut the body short, so
	// handlers keep those out of v (core.ErrNonFinitePrediction).
	_ = enc.Encode(v)
}

// WriteError answers code with the uniform error body.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// admission is what admitting a request body yields, minus the design:
// the normalised request with the deck text dropped, the design's name
// and its content address — about 300 bytes, read-only once built.
type admission struct {
	req  AnalyzeRequest
	name string
	fp   string // cache.DesignFingerprint; "" when caching is off
}

// memoEntry is what the server remembers of a body whose job finished:
// the body, its admission and its answer (manifest dropped: a manifest
// describes one run). Every analysis mode is deterministic in the
// admission, so a byte-identical body is answered from the entry without
// being decoded, parsed, fingerprinted or solved. It is filed under the
// body's seeded maphash and found only when its bytes equal the body's,
// so a collision can never hand one client another's answer.
type memoEntry struct {
	body []byte
	adm  *admission
	res  *AnalyzeResult
}

// memoKey is the artifact-cache key of the memo entry under digest.
func memoKey(digest uint64) string { return fmt.Sprintf("memo|%016x", digest) }

// Body is a request body in a pooled buffer, shared by its holders: the
// buffer goes back to the pool at the last holder's Release, after which
// neither the Body nor any slice of Bytes may be used.
type Body struct {
	buf  bytes.Buffer
	refs atomic.Int32
}

var bodies = sync.Pool{New: func() any { return new(Body) }}

// Bytes returns the body, valid until the last Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Hold adds a holder, who must Release.
func (b *Body) Hold() { b.refs.Add(1) }

// Release ends one holder's use.
func (b *Body) Release() {
	if b.refs.Add(-1) == 0 {
		bodies.Put(b)
	}
}

// ReadBody reads a request body under the admission limit into a pooled
// buffer, sized from Content-Length when the client sent one, with the
// caller as its one holder. On failure it returns the status to answer
// with: 413 past the limit, 400 otherwise.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (*Body, int, error) {
	b := bodies.Get().(*Body)
	b.buf.Reset()
	b.refs.Store(1)
	if n := r.ContentLength; n > 0 && n <= limit && int64(b.buf.Cap()) < n+bytes.MinRead {
		// Sized to the body: growing the pooled buffer would double it.
		b.buf = *bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	}
	if _, err := b.buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		b.Release()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("read body: %w", err)
	}
	return b, 0, nil
}

// DecodeRequest is the strict decoder of both front doors (this
// handler and the cluster gateway): an unknown field is an error, and
// so is anything but whitespace after the request object.
func DecodeRequest(body []byte) (*AnalyzeRequest, error) {
	req := new(AnalyzeRequest)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("bad request body: data after the request object")
	}
	return req, nil
}

// admit is the slow admission, the only one: validate the decoded
// request, build its design, fingerprint it.
func (s *Server) admit(req *AnalyzeRequest) (*admission, *pgen.Design, error) {
	design, err := s.prepare(req)
	if err != nil {
		return nil, nil, err
	}
	adm := &admission{req: *req, name: design.Name, fp: cache.DesignFingerprint(design)}
	adm.req.Spice = ""
	return adm, design, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	rb, code, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		if code == http.StatusRequestEntityTooLarge {
			cRejected.Inc()
		}
		WriteError(w, code, "%v", err)
		return
	}
	// One lookup per body: a byte-identical resubmission of a body whose
	// job finished carries its admission and its answer from the memo;
	// any other body is admitted in full. Only a finished job is stored,
	// so a bad deck is linted every time. The buffer goes back to the
	// pool once the answer is written (the accepted record's append has
	// copied it by then).
	defer rb.Release()
	body := rb.Bytes()
	j := &job{digest: maphash.Bytes(s.seed, body)}
	if v, ok := s.cache.Get(memoKey(j.digest)); ok && bytes.Equal(v.(*memoEntry).body, body) {
		e := v.(*memoEntry)
		j.admission, j.memo = e.adm, e.res
	} else {
		req, err := DecodeRequest(body)
		if err == nil {
			j.admission, j.design, err = s.admit(req)
		}
		if err != nil {
			var de *circuit.DeckError
			if errors.As(err, &de) {
				// Deck-lint failures carry the full machine-readable issue
				// list, not just the first problem.
				WriteJSON(w, http.StatusBadRequest, map[string]any{
					"error":  de.Error(),
					"issues": de.Issues,
				})
				return
			}
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rb.Hold() // never released: the job's memo entry keeps the buffer
		j.body = body
	}

	ctx, cancel := s.jobContext(j.req.TimeoutMS)
	j.submitted, j.status = time.Now(), statusQueued
	j.ctx, j.cancel, j.done = ctx, cancel, make(chan struct{})
	j.handoffFrom = r.Header.Get(HeaderHandoffFrom)
	s.reg.add(j, "")

	if !s.submit(j) {
		cancel()
		cRejected.Inc()
		j.finalizeKind(statusFailed, "queue full or server draining", "", nil)
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "job queue full or server draining")
		return
	}
	// Journal the acceptance — the bytes the client sent, which is what
	// replay re-admits — only after the submit succeeded (a rejected
	// submission needs no recovery) and before acknowledging the client,
	// so an acknowledged job is always replayable.
	s.journalAppend(j.ctx, journal.Record{Type: journal.TypeAccepted, JobID: j.id, Request: body})

	if j.req.Async {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		WriteJSON(w, http.StatusAccepted, j.snapshot())
		return
	}

	// Synchronous: wait for the job, or cancel it when the client
	// goes away so the worker slot frees up promptly.
	select {
	case <-j.Done():
	case <-r.Context().Done():
		j.abort()
		<-j.Done()
		return // client is gone; nothing to write
	}
	v := j.snapshot()
	switch v.Status {
	case StatusDone:
		WriteJSON(w, http.StatusOK, v)
	case statusCancelled:
		WriteJSON(w, http.StatusConflict, v)
	default:
		code := http.StatusInternalServerError
		switch {
		case v.ErrorKind == ErrKindExhausted:
			// Every degradation rung failed: the request was valid, the
			// backends are unhealthy. No Retry-After: the pipeline is
			// deterministic, so a retry fails the same way.
			code = http.StatusServiceUnavailable
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		}
		WriteJSON(w, code, v)
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	cRequests.Inc()
	j, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.abort()
	WriteJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.submitMu.Lock()
	draining := s.draining
	s.submitMu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"status":         status,
		"shard":          s.cfg.Name,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.cfg.Workers,
		"in_flight":      s.InFlight(),
		"queue_len":      len(s.queue),
		"queue_cap":      s.cfg.QueueDepth,
		"gemm_kernel":    nn.Kernel(),
		"fused_model":    s.cfg.Analyzer != nil,
		"cache_entries":  s.cache.Len(),
		"jobs":           s.reg.counts(),
		"journal": map[string]any{
			"enabled":         s.journal != nil,
			"error":           s.journalErr,
			"replay_segments": s.replayStats.Segments,
			"replay_records":  s.replayStats.Records,
			"torn_bytes":      s.replayStats.TornBytes,
			"corrupt":         s.replayStats.Corrupt,
		},
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"shard":    s.cfg.Name,
		"counters": obs.GlobalCounters(),
		"gauges": map[string]float64{
			"serve.uptime_seconds": time.Since(s.start).Seconds(),
			"serve.queue_len":      float64(len(s.queue)),
			"serve.in_flight":      float64(s.InFlight()),
			"serve.workers":        float64(s.cfg.Workers),
		},
		"cache": s.cache.Stats(),
	})
}

// prepare validates a request and resolves its design. It runs on the
// request goroutine so malformed submissions fail with 400 before
// consuming a queue slot.
func (s *Server) prepare(req *AnalyzeRequest) (*pgen.Design, error) {
	switch req.Mode {
	case "":
		req.Mode = ModeNumerical
	case ModeNumerical:
	case ModeFused:
		if s.cfg.Analyzer == nil {
			return nil, errors.New("fused mode unavailable: no model loaded (start the server with -model-file)")
		}
	default:
		return nil, fmt.Errorf("unknown mode %q (want %q or %q)", req.Mode, ModeNumerical, ModeFused)
	}
	switch req.Precond {
	case "":
		req.Precond = "amg"
	case "amg", "ssor":
	default:
		return nil, fmt.Errorf("unknown precond %q (want amg or ssor)", req.Precond)
	}
	if req.Iters < 0 || req.Iters > maxIters {
		return nil, fmt.Errorf("iters %d out of range [0, %d]", req.Iters, maxIters)
	}
	// The bound keeps jobContext's conversion to a time.Duration from
	// overflowing into a deadline already past.
	if maxMS := int64(math.MaxInt64 / time.Millisecond); req.TimeoutMS < 0 || int64(req.TimeoutMS) > maxMS {
		return nil, fmt.Errorf("timeout_ms %d out of range [0, %d]", req.TimeoutMS, maxMS)
	}
	if req.Resolution < 0 || req.Resolution > s.cfg.MaxDesignSize {
		return nil, fmt.Errorf("resolution %d out of range [0, %d]", req.Resolution, s.cfg.MaxDesignSize)
	}

	hasSpice, hasPgen := req.Spice != "", req.Pgen != nil
	if hasSpice == hasPgen {
		return nil, errors.New("exactly one of \"spice\" and \"pgen\" must be set")
	}
	if hasPgen {
		cfg := *req.Pgen
		if cfg.Name == "" {
			cfg.Name = "request"
		}
		if cfg.W <= 0 || cfg.H <= 0 {
			return nil, fmt.Errorf("pgen: die size %dx%d must be positive", cfg.W, cfg.H)
		}
		if cfg.W > s.cfg.MaxDesignSize || cfg.H > s.cfg.MaxDesignSize {
			return nil, fmt.Errorf("pgen: die size %dx%d exceeds limit %d", cfg.W, cfg.H, s.cfg.MaxDesignSize)
		}
		if cfg.VDD == 0 { //irfusion:exact an unset JSON field decodes to exactly zero, selecting the class default
			base := pgen.DefaultConfig(cfg.Name, cfg.Class, cfg.W, cfg.H, cfg.Seed)
			base.Name = cfg.Name
			if cfg.Layers != nil {
				base.Layers = cfg.Layers
			}
			cfg = base
		}
		if len(cfg.Layers) > maxPgenLayers || cfg.Hotspots < 0 || cfg.Hotspots > maxPgenHotspots ||
			cfg.Blockages < 0 || cfg.Blockages > maxPgenBlockages {
			return nil, fmt.Errorf("pgen: %d layers, %d hotspots, %d blockages: limits are %d, %d, %d",
				len(cfg.Layers), cfg.Hotspots, cfg.Blockages, maxPgenLayers, maxPgenHotspots, maxPgenBlockages)
		}
		if n, most := pgen.MaxCards(cfg), s.cfg.MaxBodyBytes/pgenCardBytes; int64(n) > most {
			return nil, fmt.Errorf("pgen: up to %d cards, more than the %d a %d-byte deck carries", n, most, s.cfg.MaxBodyBytes)
		}
		d, err := pgen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("pgen: %w", err)
		}
		// The generated deck is linted like a submitted one, so a
		// field that makes it unsolvable is a 400 with its issues.
		if d.Network, err = circuit.Admit(d.Netlist); err != nil {
			return nil, err
		}
		return d, nil
	}

	d, err := DeckDesign("request", req.Spice, req.Resolution)
	if err != nil {
		return nil, err
	}
	if d.W > s.cfg.MaxDesignSize {
		return nil, fmt.Errorf("spice: die size %d exceeds limit %d", d.W, s.cfg.MaxDesignSize)
	}
	return d, nil
}

// DeckDesign admits a SPICE deck in one walk: parse it, then lint it and
// build its network together (circuit.Admit: floating nodes,
// non-positive resistances, missing or disagreeing pads — a
// *circuit.DeckError, so a bad deck costs a 400 here, not a mid-solve
// 500 from a worker), size the die from the network's structured node
// names (fallbackSize when they carry no coordinates) and take VDD from
// the first pad. The design carries the network, so the analysis under
// it builds none. POST /v1/analyze and `irfusion analyze -spice` both
// build their design here, so a deck rasterises to the same map through
// either.
func DeckDesign(name, deck string, fallbackSize int) (*pgen.Design, error) {
	nl, err := spice.ParseString(deck)
	if err != nil {
		return nil, err
	}
	if len(nl.Elements) == 0 {
		return nil, errors.New("spice: deck has no elements")
	}
	nw, err := circuit.Admit(nl)
	if err != nil {
		return nil, err
	}
	size := 0
	for i, n := range nw.Meta { // what InferDieSize reads, once per distinct node
		if nw.HasMeta[i] {
			size = max(size, n.X+1, n.Y+1)
		}
	}
	if size <= 0 {
		size = fallbackSize
	}
	if size <= 0 {
		return nil, errors.New("spice: cannot infer die size from node names; set a resolution")
	}
	return &pgen.Design{Name: name, W: size, H: size, VDD: nw.Pads[0].Volts, Netlist: nl, Network: nw}, nil
}

// InferDieSize derives the die extent (µm == pixels) from structured
// node names. Exported so the cluster gateway derives the same routing
// geometry for a SPICE deck that this shard will derive when analyzing
// it.
func InferDieSize(nl *spice.Netlist) int {
	size := 0
	for _, e := range nl.Elements {
		for _, name := range [2]string{e.NodeA, e.NodeB} {
			if n, err := spice.ParseNode(name); err == nil {
				size = max(size, n.X+1, n.Y+1)
			}
		}
	}
	return size
}

// PadVoltage returns the first V-card voltage (the VDD rail).
func PadVoltage(nl *spice.Netlist) float64 {
	for _, e := range nl.Elements {
		if e.Type == spice.VoltageSource {
			return e.Value
		}
	}
	return 0
}

// runJob executes one admitted job on a worker goroutine, with a
// per-job obs.Recorder bound into the job context so concurrent jobs
// produce isolated run manifests.
func (s *Server) runJob(j *job) {
	if !j.markRunning() {
		// Cancelled while queued; already finalized under j.mu. Still a
		// terminal transition the journal must learn about, or replay
		// would resurrect the cancelled job.
		s.journalTerminal(j, journal.TypeCancelled, "cancelled before start")
		j.design = nil
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer j.cancel() // release the context's timer resources

	rec := obs.NewRecorder()
	rec.Add("serve.job", 1)
	ctx := obs.WithRecorder(j.ctx, rec)
	cfgMap := map[string]any{
		"mode":    j.req.Mode,
		"iters":   j.req.Iters,
		"precond": j.req.Precond,
		"design":  j.name,
	}
	if j.req.Mode == ModeFused {
		cfgMap["gemm_kernel"] = nn.Kernel() // which GEMM leaf the inference time below was taken on
	}
	if j.handoffFrom != "" {
		// This job reached us through a gateway handoff after another
		// shard failed it: record the provenance so the manifest proves
		// the failover happened and names the shard it came from.
		rec.Add("serve.handoff", 1)
		cfgMap["handoff_from"] = j.handoffFrom
	}
	// Bind the per-process cache into the job context so the whole
	// pipeline underneath (core, dataset) resolves it with
	// cache.FromContext; record the content address in the manifest so
	// cached runs are attributable to their design.
	ctx = cache.WithCache(ctx, s.cache)
	cfgMap["fingerprint"] = cache.ShortKey(j.fp)

	result, err := s.executeProtected(ctx, j)

	// The run is over: a retained job keeps its result and manifest, not
	// the parsed deck (whose strings pin the text) or the body.
	j.design, j.body = nil, nil

	manifest := rec.Manifest("serve.analyze", cfgMap)
	manifest.Shard = s.cfg.Name
	if !j.req.OmitManifest {
		if result == nil {
			result = &AnalyzeResult{Mode: j.req.Mode, Design: j.name}
		}
		result.Manifest = manifest
	}

	switch {
	case err == nil:
		cDone.Inc()
		j.finalizeKind(StatusDone, "", "", result)
		s.journalTerminal(j, journal.TypeFinished, "")
	case j.cancelled.Load():
		cCancelled.Inc()
		j.finalizeKind(statusCancelled, err.Error(), errKindCancelled, result)
		s.journalTerminal(j, journal.TypeCancelled, err.Error())
	default:
		cFailed.Inc()
		kind, msg := failureKind(err)
		j.finalizeKind(statusFailed, msg, kind, result)
		s.journalTerminal(j, journal.TypeFailed, kind)
	}
}

// failureKind maps a failed job's error onto its structured
// error_kind. The mapping is driven entirely by errors.Is, so every
// wrap site on the failure paths — PCGCtx's cancellation wraps, the
// ladder's exhaustion wrap, the worker panic barrier — must use %w
// (enforced by the errwrap lint rule; identity pinned by
// TestFailureKindSeesThroughWrapping).
func failureKind(err error) (kind, msg string) {
	msg = err.Error()
	switch {
	case errors.Is(err, errWorkerPanic):
		kind = errKindPanic
	case errors.Is(err, plan.ErrLadderExhausted):
		kind = ErrKindExhausted
	case errors.Is(err, context.DeadlineExceeded):
		kind = errKindTimeout
		msg = fmt.Sprintf("deadline exceeded: %v", err)
	}
	return kind, msg
}

// errWorkerPanic marks an analysis that died by panic and was
// recovered on the worker goroutine.
var errWorkerPanic = errors.New("serve: worker panic")

// executeProtected runs execute with a panic barrier: a panicking
// analysis must cost one failed job (with its partial manifest), never
// the worker goroutine — losing a worker would silently shrink service
// capacity until the queue wedges. Recovered panics increment the
// serve.panics counter and surface as a 500 with errKindPanic.
func (s *Server) executeProtected(ctx context.Context, j *job) (result *AnalyzeResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			cPanics.Inc()
			result, err = nil, fmt.Errorf("%w: %v", errWorkerPanic, r)
		}
	}()
	// Fault hook (faults.SiteServeWorker, labeled by mode): panic
	// exercises the recovery barrier above; latency/stall delay the
	// job cooperatively.
	if f := faults.ActiveOr(ctx).Fire(faults.SiteServeWorker, j.req.Mode); f != nil {
		if f.Action == faults.ActPanic {
			panic(f.Error())
		}
		if serr := f.Sleep(ctx); serr != nil {
			return nil, fmt.Errorf("%w: %w", solver.ErrCancelled, serr)
		}
	}
	return s.execute(ctx, j)
}

// execute runs the analysis of one job under ctx. A job admitted from
// the memo is answered with a copy of the stored result and a fresh
// manifest recording the hit; any other job runs, and its result is
// memoised with its body when it succeeds. On cancellation the returned
// error wraps solver.ErrCancelled and the result is nil (the caller
// still attaches the manifest with the partial history).
func (s *Server) execute(ctx context.Context, j *job) (*AnalyzeResult, error) {
	rec := obs.FromContext(ctx)
	record := func(outcome string) {
		rec.RecordCacheEvent(obs.CacheEvent{Stage: "serve.analyze", Outcome: outcome, Key: cache.ShortKey(fmt.Sprintf("%016x", j.digest))})
	}
	if j.memo != nil {
		start, st := time.Now(), rec.StartStage("serve.memo")
		record(obs.CacheHit)
		out := *j.memo // Map is never mutated after finalize, so sharing it is safe
		st.End()
		out.RuntimeSeconds = time.Since(start).Seconds()
		return &out, nil
	}
	record(obs.CacheMiss)
	out, err := s.analyze(ctx, j)
	if err == nil {
		stored := *out
		stored.Manifest = nil // manifests describe one run; never replay them
		s.cache.Put(memoKey(j.digest), &memoEntry{j.body, j.admission, &stored}, int64(len(stored.Map)*8+cap(j.body))+memoBytes, "memo")
		record(obs.CacheStore)
	}
	return out, err
}

// memoBytes is the accounted size of one memo entry beside map and body.
const memoBytes = 1024

// analyze dispatches the actual analysis of one job.
func (s *Server) analyze(ctx context.Context, j *job) (*AnalyzeResult, error) {
	req, d := &j.req, j.design
	if req.Mode == ModeFused {
		return s.executeFused(ctx, req, d)
	}
	res := req.Resolution
	if res == 0 {
		res = d.W
	}
	na := &core.NumericalAnalyzer{
		Iters: req.Iters, Resolution: res, Precond: req.Precond, Fingerprint: j.fp,
	}
	m, rt, resid, err := na.AnalyzeCtx(ctx, d)
	if err != nil {
		return nil, err
	}
	out := newResult(req, d, m, rt.Seconds())
	out.Residual = resid
	return out, nil
}

// executeFused runs the fused numerical+ML pipeline at this request's
// rough budget: core.Analyzer.AnalyzeCtx on a shallow copy of the
// server's analyzer, whose model it only reads (see PredictCtx), so
// Config.Workers fused jobs run at once.
func (s *Server) executeFused(ctx context.Context, req *AnalyzeRequest, d *pgen.Design) (*AnalyzeResult, error) {
	al := *s.cfg.Analyzer
	if req.Iters > 0 {
		al.Config.RoughIters = req.Iters
	}
	pred, rt, err := al.AnalyzeCtx(ctx, d)
	if err != nil {
		return nil, err
	}
	return newResult(req, d, pred, rt.Seconds()), nil
}

// newResult summarizes a predicted map into the response payload.
func newResult(req *AnalyzeRequest, d *pgen.Design, m *grid.Map, seconds float64) *AnalyzeResult {
	y, x := m.ArgMax()
	out := &AnalyzeResult{
		Design:         d.Name,
		Mode:           req.Mode,
		Resolution:     m.W,
		MaxDropVolts:   m.Max(),
		MeanDropVolts:  m.Mean(),
		HotspotYX:      &[2]int{y, x},
		RuntimeSeconds: seconds,
	}
	if req.IncludeMap {
		out.Map = m.Data
	}
	return out
}
