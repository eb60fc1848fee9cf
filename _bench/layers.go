package main

// layers.go is the only file of the benchmark that calls into the
// program under test. Every other file is standard library only, so a
// later change to one of the signatures used here is adapted in one
// place, and a change that must not alter the benchmark knows which
// signatures are pinned (the list is repeated in README.md).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"irfusion"
	"irfusion/internal/amg"
	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/cluster"
	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/features"
	"irfusion/internal/grid"
	"irfusion/internal/journal"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
	"irfusion/internal/solver"
	"irfusion/internal/sparse"
	"irfusion/internal/spice"
)

// ---- inputs ----------------------------------------------------------

type design = irfusion.Design

// generateDesign synthesizes one real-class power grid; a distinct
// seed gives a distinct topology (blockages, pads, hotspots move).
func generateDesign(die int, seed int64) (*design, error) {
	return irfusion.GenerateDesign(irfusion.DesignConfig(fmt.Sprintf("bench%d", seed), irfusion.Real, die, die, seed))
}

// perturbDesign is the ECO edit of eco_gateway: ecoFraction of the
// resistors rescaled, topology untouched.
func perturbDesign(d *design, seed int64) *design { return pgen.Perturb(d, ecoFraction, seed) }

// renderRequest writes the design as a SPICE deck, the paper's input,
// inside the JSON body of POST /v1/analyze.
func renderRequest(d *design, mode string, includeMap, omitManifest bool) ([]byte, error) {
	return json.Marshal(serve.AnalyzeRequest{
		Spice: d.Netlist.String(), Mode: mode, IncludeMap: includeMap, OmitManifest: omitManifest,
	})
}

// designOf decodes a request body back into the design the server
// derives from it (same die-size and pad-voltage inference).
func designOf(body []byte) (*design, *serve.AnalyzeRequest, error) {
	var req serve.AnalyzeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("decode request: %w", err)
	}
	nl, err := spice.ParseString(req.Spice)
	if err != nil {
		return nil, nil, err
	}
	size := serve.InferDieSize(nl)
	return &design{Name: "request", W: size, H: size, VDD: serve.PadVoltage(nl), Netlist: nl}, &req, nil
}

// variantRequest renders the ECO edit of a request's deck with the
// request's own options.
func variantRequest(body []byte, seed int64) ([]byte, error) {
	d, req, err := designOf(body)
	if err != nil {
		return nil, err
	}
	return renderRequest(perturbDesign(d, seed), req.Mode, req.IncludeMap, req.OmitManifest)
}

const (
	modeNumerical = serve.ModeNumerical
	modeFused     = serve.ModeFused
	shardHeader   = serve.HeaderShard
)

// ---- model -----------------------------------------------------------

type analyzer = irfusion.Analyzer

// trainAnalyzer trains the paper's architecture at the given raster
// resolution with the smallest training that runs: two designs, one
// epoch, fixed seeds. Weight quality does not change inference cost.
func trainAnalyzer(resolution int) (*analyzer, error) {
	cfg := irfusion.DefaultConfig(resolution)
	cfg.Epochs = 1
	cfg.UseAugmentation = false
	set, err := irfusion.GenerateTrainingSet(1, 1, resolution, trainSeed, cfg.DatasetOptions())
	if err != nil {
		return nil, fmt.Errorf("training set: %w", err)
	}
	res, err := irfusion.Train(cfg, set)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return res.Analyzer, nil
}

// ---- servers ---------------------------------------------------------

// newServer builds one analysis server with the default configuration
// (cache on, 2 workers, checkpoint every 32 iterations); an, when not
// nil, enables fused mode, and journalDir, when not empty, the
// write-ahead journal with fsync after every record.
func newServer(name string, an *analyzer, journalDir string) (http.Handler, func(context.Context) error) {
	cfg := serve.Config{Name: name, Analyzer: an, JournalDir: journalDir}
	if journalDir != "" {
		cfg.JournalSync = journal.SyncAlways
	}
	srv := serve.New(cfg)
	return srv.Handler(), srv.Close
}

// newGateway builds the cluster gateway, default configuration, over
// the named shard URLs.
func newGateway(names, urls []string) (http.Handler, func(context.Context) error, error) {
	cfg := cluster.Config{}
	for i := range names {
		cfg.Shards = append(cfg.Shards, cluster.ShardSpec{Name: names[i], URL: urls[i]})
	}
	g, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return g.Handler(), g.Close, nil
}

// counterValue reads one process-global counter of the program.
func counterValue(name string) int64 { return obs.CounterValue(name) }

// journalStats replays a journal directory and counts its records.
func journalStats(dir string) (records int, err error) {
	j, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone}, func(journal.Record) { records++ })
	if err != nil {
		return 0, err
	}
	return records, j.Close()
}

// ---- answer check ----------------------------------------------------

// choleskyMaxN is the largest system the reference solves with the
// sparse Cholesky factorization, which shares no code with the
// iterative solver under test. Its natural-order fill grows fast (2.8 s
// for the 5700 unknowns of a 128 um die), so larger systems fall back to
// PCG at tolerance 1e-12; the -quick dies all fit.
const choleskyMaxN = 2000

// referenceMap computes, in process, the map the server should have
// returned for the request: for fused mode a direct Analyzer call on
// the same deck, for numerical mode an independent solve.
func referenceMap(d *design, mode string, an *analyzer) (*grid.Map, error) {
	if mode == modeFused {
		m, _, err := an.AnalyzeCtx(context.Background(), d)
		return m, err
	}
	nw, err := irfusion.ParseNetlist(d.Netlist)
	if err != nil {
		return nil, err
	}
	sys, err := nw.Assemble()
	if err != nil {
		return nil, err
	}
	x := make([]float64, sys.N())
	if sys.N() <= choleskyMaxN {
		ch, err := sparse.NewCholesky(sys.G)
		if err != nil {
			return nil, err
		}
		ch.Solve(x, sys.I)
	} else {
		h, err := amg.Build(sys.G, amg.DefaultOptions())
		if err != nil {
			return nil, err
		}
		res, err := solver.PCG(sys.G, x, sys.I, h, solver.Options{Tol: 1e-12, MaxIter: 2000, Flexible: true})
		if err != nil {
			return nil, err
		}
		if !res.Converged {
			return nil, fmt.Errorf("reference solve stalled at %g", res.Residual)
		}
	}
	return features.GoldenMap(nw, sys.FullDrops(x), d.H, d.W), nil
}

// reply is the part of a /v1/analyze response the benchmark reads.
type reply struct {
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		MaxDropVolts  float64         `json:"max_drop_volts"`
		MeanDropVolts float64         `json:"mean_drop_volts"`
		Map           []float64       `json:"map"`
		Manifest      json.RawMessage `json:"manifest"`
	} `json:"result"`
}

// Relative max-norm tolerances of the answer check.
const (
	numericalTol = 1e-6
	fusedTol     = 1e-9
)

// checkAnswer compares one decoded response with its reference map:
// the full map when the request asked for it, else the summary
// statistics the response carries.
func checkAnswer(reqBody, respBody []byte, an *analyzer) error {
	var r reply
	if err := json.Unmarshal(respBody, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if r.Status != "done" || r.Result == nil {
		return fmt.Errorf("job status %q: %s", r.Status, r.Error)
	}
	d, req, err := designOf(reqBody)
	if err != nil {
		return err
	}
	ref, err := referenceMap(d, req.Mode, an)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	tol := numericalTol
	if req.Mode == modeFused {
		tol = fusedTol
	}
	scale := ref.Max()
	if scale <= 0 {
		return errors.New("reference map has no drop")
	}
	worst := math.Max(math.Abs(r.Result.MaxDropVolts-ref.Max()), math.Abs(r.Result.MeanDropVolts-ref.Mean()))
	if req.IncludeMap {
		if len(r.Result.Map) != len(ref.Data) {
			return fmt.Errorf("map has %d pixels, reference %d", len(r.Result.Map), len(ref.Data))
		}
		for i, v := range r.Result.Map {
			worst = math.Max(worst, math.Abs(v-ref.Data[i]))
		}
	}
	if !(worst <= tol*scale) {
		return fmt.Errorf("answer off by %.3g of the maximum drop (tolerance %g)", worst/scale, tol)
	}
	return nil
}

// manifestBytes returns the size of the run manifest in a response, 0
// when the request omitted it.
func manifestBytes(respBody []byte) int {
	var r reply
	if json.Unmarshal(respBody, &r) != nil || r.Result == nil {
		return 0
	}
	return len(r.Result.Manifest)
}

// ---- layer replay ----------------------------------------------------

// layerProbe holds what the replay needs beyond the request itself: a
// trained model and a journal with the durable sync policy.
type layerProbe struct {
	an *analyzer
	jr *journal.Journal
}

func newLayerProbe(an *analyzer, journalDir string) (*layerProbe, error) {
	jr, _, err := journal.Open(journalDir, journal.Options{Sync: journal.SyncAlways}, nil)
	if err != nil {
		return nil, err
	}
	return &layerProbe{an: an, jr: jr}, nil
}

func (p *layerProbe) close() error { return p.jr.Close() }

// Repetitions inside the two microsecond-scale spans.
const (
	amgApplyReps = 20
	spmvReps     = 50
)

// replayRun times steps as child spans of one replay span; the first
// failing step is kept and later steps are skipped.
type replayRun struct {
	tr        *tracer
	root, req int
	err       error
}

func (r *replayRun) step(name string, fn func() error) float64 {
	if r.err != nil {
		return 0
	}
	id := r.tr.begin(name, r.root, r.req)
	err := fn()
	d := r.tr.end(id)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", name, err)
	}
	return float64(d) / float64(time.Millisecond)
}

// replay times the public entry point of every layer on one request,
// in pipeline order, as children of a "replay" span, and returns the
// per-layer values of that request. pipeline_ms is the sum of the
// steps the server itself runs for this request's mode, which
// serve.overhead_ms is measured against.
func (p *layerProbe) replay(tr *tracer, reqID int, body []byte) (map[string]float64, error) {
	ctx := context.Background()
	run := &replayRun{tr: tr, req: reqID}
	run.root = tr.begin("replay", noParent, reqID)
	defer tr.end(run.root)
	out := map[string]float64{}

	var areq serve.AnalyzeRequest
	if err := json.Unmarshal(body, &areq); err != nil {
		return nil, err
	}
	var nl *spice.Netlist
	out["spice.parse_ms"] = run.step("spice.parse", func() (err error) {
		nl, err = spice.ParseString(areq.Spice)
		return err
	})
	out["circuit.validate_ms"] = run.step("circuit.validate", func() error { return circuit.ValidateNetlist(nl) })
	if run.err != nil {
		return nil, run.err
	}
	out["spice.parse_mb_s"] = float64(len(areq.Spice)) / 1e6 / (out["spice.parse_ms"] / 1e3)
	die := serve.InferDieSize(nl)
	d := &design{Name: "request", W: die, H: die, VDD: serve.PadVoltage(nl), Netlist: nl}
	var fp string
	out["cache.fingerprint_ms"] = run.step("cache.fingerprint", func() error { fp = cache.DesignFingerprint(d); return nil })
	out["cache.routing_fp_ms"] = run.step("cache.routing_fp", func() error { cache.RoutingFingerprint(d); return nil })

	var nw *circuit.Network
	var sys *circuit.System
	out["circuit.network_ms"] = run.step("circuit.network", func() (err error) {
		nw, err = irfusion.ParseNetlist(nl)
		return err
	})
	out["circuit.assemble_ms"] = run.step("circuit.assemble", func() (err error) {
		sys, err = nw.Assemble()
		return err
	})
	var h *amg.Hierarchy
	out["amg.setup_ms"] = run.step("amg.setup", func() (err error) {
		h, err = amg.Build(sys.G, amg.DefaultOptions())
		return err
	})
	if run.err != nil {
		return nil, run.err
	}
	n := sys.N()
	out["circuit.unknowns"] = float64(n)
	out["amg.levels"] = float64(h.NumLevels())
	out["amg.op_complexity"] = h.OperatorComplexity()
	z := make([]float64, n)
	out["amg.apply_us"] = 1e3 / amgApplyReps * run.step("amg.apply", func() error {
		for i := 0; i < amgApplyReps; i++ {
			h.Apply(z, sys.I)
		}
		return nil
	})
	x := make([]float64, n)
	var res solver.Result
	out["solver.pcg_ms"] = run.step("solver.pcg", func() (err error) {
		res, err = solver.PCGCtx(ctx, sys.G, x, sys.I, h, solver.DefaultOptions())
		return err
	})
	out["solver.iters"] = float64(res.Iterations)
	out["solver.residual"] = res.Residual
	op := sys.G.Operator()
	spmvMS := run.step("sparse.spmv", func() error {
		for i := 0; i < spmvReps; i++ {
			op.MulVec(z, x)
		}
		return nil
	})
	out["sparse.spmv_us"] = 1e3 / spmvReps * spmvMS
	out["sparse.nnz"] = float64(sys.G.NNZ())
	// Bytes one CSR product touches, from the array sizes: value and
	// column index per entry, row pointer and two vector entries per row.
	spmvBytes := float64(sys.G.NNZ())*12 + float64(n)*20
	out["sparse.spmv_computed_gb_s"] = spmvBytes * spmvReps / 1e9 / (spmvMS / 1e3)

	// The warm-start rung: an ECO variant of this design against a cache
	// that holds this design's converged solve.
	var variant *design
	var sys2 *circuit.System
	cc := cache.New(0, 0)
	run.step("replay.variant", func() error {
		variant = perturbDesign(d, int64(reqID)+1)
		nw2, err := irfusion.ParseNetlist(variant.Netlist)
		if err != nil {
			return err
		}
		sys2, err = nw2.Assemble()
		cache.StoreSystem(ctx, cc, "replay", &cache.SystemArtifact{
			Fingerprint: fp, N: n, G: sys.G, I: sys.I, Golden: append([]float64(nil), x...), Hier: h,
		})
		return err
	})
	var donor *cache.SystemArtifact
	findMS := run.step("cache.find_warm", func() (err error) {
		donor, _, err = cache.FindWarmStart(ctx, cc, sys2.G, 0)
		return err
	})
	out["cache.delta_ms"] = run.step("cache.delta", func() error { cache.Delta(sys2.G, sys.G); return nil })
	// On small dies an edit of ecoFraction of the resistors can exceed the
	// warm-start delta; the program then solves such a variant cold, and
	// this request gives no warm-start values.
	if donor != nil {
		out["cache.find_warm_ms"] = findMS
		var warm solver.Result
		out["solver.warm_pcg_ms"] = run.step("solver.warm_pcg", func() (err error) {
			x2 := append([]float64(nil), donor.Golden...)
			warm, err = solver.PCGCtx(ctx, sys2.G, x2, sys2.I, donor.Hier.Clone(), solver.DefaultOptions())
			return err
		})
		out["solver.warm_iters"] = float64(warm.Iterations)
	}

	// The fused pipeline's numerical stage and the ML stage.
	rough := make([]float64, n)
	out["solver.rough_ms"] = run.step("solver.rough", func() error { return p.an.RoughSolver(0)(ctx, sys, rough) })
	r := p.an.Config.Resolution
	out["features.structure_ms"] = run.step("features.structure", func() error { features.StructureFeatures(nw, r, r); return nil })
	out["features.numerical_ms"] = run.step("features.numerical", func() error {
		features.NumericalFeatures(nw, sys.FullDrops(rough), r, r)
		return nil
	})
	out["features.rasterize_ms"] = run.step("features.rasterize", func() error {
		features.GoldenMap(nw, sys.FullDrops(x), die, die)
		return nil
	})
	var sample *dataset.Sample
	rec := obs.NewRecorder()
	out["dataset.build_ms"] = run.step("dataset.build", func() (err error) {
		opts := p.an.Config.DatasetOptions()
		opts.RoughSolver = p.an.RoughSolver(0)
		sample, err = dataset.BuildCtx(obs.WithRecorder(ctx, rec), d, opts)
		return err
	})
	for _, st := range rec.Manifest("replay", nil).Stages {
		if st.Name == "dataset.golden_solve" {
			out["dataset.golden_share"] = st.Seconds * 1e3 / out["dataset.build_ms"]
		}
	}
	var pred *grid.Map
	gemm := counterValue("nn.gemm_calls")
	out["core.predict_ms"] = run.step("core.predict", func() error { pred = p.an.PredictCtx(ctx, sample); return nil })
	if run.err != nil {
		return nil, run.err
	}
	out["nn.gemm_calls"] = float64(counterValue("nn.gemm_calls") - gemm)
	out["core.fused_mae_mv"] = grid.MAE(pred, sample.Golden) * 1e3

	// The numerical analyzer as the server configures it, against an
	// empty cache, then the same design again, then the ECO variant.
	actx := cache.WithCache(ctx, cache.New(0, 0))
	analyze := func(d *design) func() error {
		return func() error {
			na := &core.NumericalAnalyzer{
				Resolution: die, Precond: "amg", Precision: "full", Format: sparse.FormatAuto, CheckpointEvery: 32,
			}
			_, _, _, err := na.AnalyzeCtx(actx, d)
			return err
		}
	}
	out["core.analyze_cold_ms"] = run.step("core.analyze_cold", analyze(d))
	out["core.analyze_hit_ms"] = run.step("core.analyze_hit", analyze(d))
	out["core.analyze_warm_ms"] = run.step("core.analyze_warm", analyze(variant))

	// Durability: the accepted record carries the whole request, and a
	// checkpoint blob carries one iterate.
	out["journal.append_us"] = 1e3 * run.step("journal.append", func() error {
		return p.jr.Append(ctx, journal.Record{Type: journal.TypeAccepted, JobID: fmt.Sprintf("replay-%d", reqID), Request: body})
	})
	shape := cache.CheckpointShape("amg", "full", sparse.FormatAuto, 0)
	blob, err := cache.EncodeCheckpoint(&cache.CheckpointArtifact{
		Fingerprint: fp, Shape: shape, N: n,
		State: solver.Checkpoint{X: x, Iter: res.Iterations, Residual: res.Residual},
	})
	if err != nil {
		return nil, err
	}
	out["journal.blob_save_ms"] = run.step("journal.blob_save", func() error {
		return p.jr.SaveBlob(cache.CheckpointKey(fp, shape), blob)
	})

	out["pipeline_ms"] = out["spice.parse_ms"] + out["circuit.validate_ms"] + out["cache.fingerprint_ms"]
	if areq.Mode == modeFused {
		out["pipeline_ms"] += out["dataset.build_ms"] + out["core.predict_ms"]
	} else {
		out["pipeline_ms"] += out["core.analyze_cold_ms"]
	}
	return out, run.err
}
