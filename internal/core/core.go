// Package core is the public face of the IR-Fusion reproduction: the
// Analyzer runs the fused numerical+ML pipeline end to end, the
// Trainer implements the paper's augmented-curriculum training loop,
// and NumericalAnalyzer is the pure AMG-PCG baseline (PowerRush) used
// in the trade-off study.
package core

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/dataset"
	"irfusion/internal/features"
	"irfusion/internal/grid"
	"irfusion/internal/metrics"
	"irfusion/internal/models"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/solver"
)

// Config assembles every knob of the pipeline. Zero values are filled
// by Default.
type Config struct {
	// Resolution is the square raster size (the contest uses 256; the
	// reduced-scale default here is 64).
	Resolution int
	// RoughIters is the AMG-PCG budget of the numerical stage.
	RoughIters int
	// ModelName selects the architecture from the models registry.
	ModelName string
	// Base and Depth size the model.
	Base, Depth int
	// Seed drives weight init, shuffling, and curriculum sampling.
	Seed int64

	// Ablation switches (all true for the full IR-Fusion).
	UseNumerical    bool
	Hierarchical    bool
	UseInception    bool
	UseCBAM         bool
	UseAugmentation bool
	UseCurriculum   bool

	// Training hyperparameters.
	Epochs         int
	LearningRate   float64
	OversampleFake int
	OversampleReal int
	// ResidualMode makes the model predict a *correction* to the
	// rasterized rough solution instead of the absolute drop map, so
	// the fused prediction is rough + correction. This realizes the
	// paper's observation that the numerical solution lets "the model
	// begin training from a point much closer to the target label".
	// It requires UseNumerical and is ignored otherwise.
	ResidualMode bool
}

// The training constants every program trains with.
const (
	// batchSize is the minibatch size of a training step.
	batchSize = 4
	// curriculumRamp is the fraction of the epochs over which the
	// curriculum mixes in the hard (real) designs.
	curriculumRamp = 0.5
	// hotspotWeight re-weights the training loss so a pixel at the
	// golden maximum counts (1 + hotspotWeight)× as much as a zero-drop
	// pixel — the re-weighting analogue of PGAU's label-distribution
	// smoothing, emphasizing the worst-case region that MIRDE and F1
	// score. Every model, IRPnet included, trains on this loss.
	hotspotWeight = 2
)

// Default returns the full IR-Fusion configuration at the given
// raster resolution.
func Default(resolution int) Config {
	return Config{
		Resolution:      resolution,
		RoughIters:      6,
		ModelName:       "irfusion",
		Base:            8,
		Depth:           3,
		Seed:            1,
		UseNumerical:    true,
		Hierarchical:    true,
		UseInception:    true,
		UseCBAM:         true,
		UseAugmentation: true,
		UseCurriculum:   true,
		Epochs:          30,
		LearningRate:    2e-3,
		OversampleFake:  2,
		OversampleReal:  5,
		ResidualMode:    true,
	}
}

// DatasetOptions derives the dataset build options implied by the
// config.
func (c Config) DatasetOptions() dataset.Options {
	opts := dataset.DefaultOptions(c.Resolution, c.Resolution)
	opts.RoughIters = c.RoughIters
	opts.IncludeNumerical = c.UseNumerical
	opts.Hierarchical = c.Hierarchical
	return opts
}

// buildModel instantiates the configured architecture sized for the
// sample's channel count, honouring the Inception/CBAM ablations when
// the model is IR-Fusion.
func (c Config) buildModel(inChannels int) (models.Model, error) {
	mc := models.Config{InChannels: inChannels, Base: c.Base, Depth: c.Depth, Seed: c.Seed}
	if c.ModelName == "irfusion" {
		return models.NewIRFusionNetAblated(mc, c.UseInception, true, c.UseCBAM), nil
	}
	return models.New(c.ModelName, mc)
}

// Analyzer is a trained fusion pipeline.
type Analyzer struct {
	Config      Config
	Model       models.Model
	Norm        *dataset.Normalizer
	TargetScale float64
}

// evalTapes holds the idle inference tapes, each the owner of one
// forward pass's activations (one block, ~9 MB at 64 px and proportional
// to Resolution², plus Conv2D's column panel): at most one per core,
// for the life of the process. A sync.Pool drops idle tapes at
// collections, so how many passes re-grew a block followed GC timing.
var evalTapes = make(chan *nn.Tape, runtime.GOMAXPROCS(0))

// borrowTape takes an idle tape or makes one, the caller's alone until
// returnTape resets it: the pass's result dies there.
func borrowTape() *nn.Tape {
	select {
	case tp := <-evalTapes:
		return tp
	default:
		return nn.NewEvalTape()
	}
}

func returnTape(tp *nn.Tape) {
	tp.Reset()
	select {
	case evalTapes <- tp:
	default: // more passes in flight than cores: the collector takes it
	}
}

// ErrNonFinitePrediction fails an analysis whose predicted map holds NaN
// or ±Inf (a poisoned checkpoint or input; encoding/json refuses it).
var ErrNonFinitePrediction = errors.New("core: non-finite value in the predicted map")

// PredictCtx runs the ML stage on a prepared sample and returns the
// predicted IR-drop map in volts (clamped non-negative). In residual
// mode the model output corrects the rasterized rough solution. The
// ml.inference stage is timed on the recorder bound to ctx, so
// concurrent predictions with per-context recorders do not cross-talk.
// The dense forward pass is not interruptible; ctx only selects the
// recorder here — cancellation takes effect at the solver loops
// upstream (see AnalyzeCtx).
//
// It writes nothing to the analyzer or its model, so any number of
// goroutines may predict on one analyzer at once. That rests on the
// model being in eval mode, which is set where an analyzer is made
// (Train, LoadAnalyzer, serve.New), not here. The sample needs no
// label: the output takes its shape from the feature maps. A NaN the
// model produces stays NaN in the map (callers that serve it check).
func (a *Analyzer) PredictCtx(ctx context.Context, s *dataset.Sample) *grid.Map {
	st := obs.FromContext(ctx).StartStage("ml.inference")
	defer st.End()
	x := a.Norm.Apply(dataset.InputTensor([]*dataset.Sample{s}))
	_, _, h, w := x.Dims4()
	m := grid.New(h, w)
	// The tape owns the result: its one plane is scaled out before return.
	tp := borrowTape()
	out := a.Model.Forward(tp, x)
	inv := 1 / a.TargetScale
	residual := a.Config.ResidualMode && a.Config.UseNumerical && s.RoughBottom != nil
	for i, v := range out.Data {
		v *= inv
		if residual {
			v += s.RoughBottom.Data[i]
		}
		if v < 0 {
			v = 0
		}
		m.Data[i] = v
	}
	returnTape(tp)
	return m
}

// AnalyzeCtx runs the complete pipeline on a raw design: rough solve,
// feature extraction, ML refinement. It returns the predicted map and
// the wall-clock runtime (numerical stage + inference). The rough
// solve stops early when ctx is cancelled (solver.ErrCancelled), and
// all stage timers and solve records report to the recorder bound to
// ctx, if any. No converged solve runs: the sample is the label-free
// dataset.BuildInferenceCtx. A context cancelled by the time the sample
// is built fails with solver.ErrCancelled instead of running inference.
//
// The rough solve of the numerical stage is plan.RoughLadder: one
// SSOR-PCG solve with a degradation record, so the manifest records
// which rung served; a rough solve that fails fails the analysis with
// plan.ErrLadderExhausted, before any inference.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, d *pgen.Design) (*grid.Map, time.Duration, error) {
	opts := a.Config.DatasetOptions()
	opts.RoughSolver = a.RoughSolver(0)
	s, err := dataset.BuildInferenceCtx(ctx, d, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w before inference: %w", solver.ErrCancelled, err)
	}
	start := time.Now()
	pred := a.PredictCtx(ctx, s)
	for _, v := range pred.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, ErrNonFinitePrediction
		}
	}
	return pred, s.NumericalTime + time.Since(start), nil
}

// RoughSolver builds the dataset.Options.RoughSolver hook that runs
// the fused pipeline's rough solve with its degradation record
// (plan.RoughLadder), with the given iteration budget (<= 0 uses the
// config's RoughIters). Exported for callers that drive the dataset
// build themselves.
func (a *Analyzer) RoughSolver(iters int) func(ctx context.Context, sys *circuit.System, x []float64) error {
	if iters <= 0 {
		iters = a.Config.RoughIters
	}
	return func(ctx context.Context, sys *circuit.System, x []float64) error {
		return plan.RoughLadder(ctx, sys, x, iters)
	}
}

// Evaluate scores the analyzer on prepared samples, charging the
// numerical stage plus inference to the runtime.
func (a *Analyzer) Evaluate(ctx context.Context, samples []*dataset.Sample) []metrics.Report {
	reports := make([]metrics.Report, 0, len(samples))
	for _, s := range samples {
		start := time.Now()
		pred := a.PredictCtx(ctx, s)
		infer := time.Since(start)
		r := metrics.Evaluate(pred, s.Golden)
		r.Runtime = (s.NumericalTime + infer).Seconds()
		reports = append(reports, r)
	}
	return reports
}

// checkpointData is the single-blob on-disk form of an Analyzer. gob
// matches fields by name and skips the ones this Config no longer has,
// so checkpoints that carry retired Config fields still load.
type checkpointData struct {
	Config      Config
	NormNames   []string
	NormScale   []float64
	TargetScale float64
	InChannels  int
	Params      [][]float64
	State       [][]float64
}

// Save serializes the whole analyzer — configuration, feature
// normalizer, target scaling, model weights, and batch-norm state —
// so LoadAnalyzer can restore an identical predictor.
func (a *Analyzer) Save(w io.Writer) error {
	data := checkpointData{
		Config:      a.Config,
		NormNames:   a.Norm.Names,
		NormScale:   a.Norm.Scale,
		TargetScale: a.TargetScale,
		InChannels:  len(a.Norm.Scale),
		State:       a.Model.State(),
	}
	for _, p := range a.Model.Params() {
		data.Params = append(data.Params, p.Data)
	}
	return gob.NewEncoder(w).Encode(data)
}

// LoadAnalyzer restores an analyzer saved with Save, rebuilding the
// model architecture from the stored configuration.
func LoadAnalyzer(r io.Reader) (*Analyzer, error) {
	var data checkpointData
	if err := gob.NewDecoder(r).Decode(&data); err != nil {
		return nil, err
	}
	model, err := data.Config.buildModel(data.InChannels)
	if err != nil {
		return nil, err
	}
	params := model.Params()
	if len(params) != len(data.Params) {
		return nil, fmt.Errorf("core: checkpoint has %d param tensors, model has %d", len(data.Params), len(params))
	}
	for i, p := range params {
		if len(p.Data) != len(data.Params[i]) {
			return nil, fmt.Errorf("core: param %d size mismatch", i)
		}
		copy(p.Data, data.Params[i])
	}
	state := model.State()
	if len(state) != len(data.State) {
		return nil, fmt.Errorf("core: checkpoint has %d state vectors, model has %d", len(data.State), len(state))
	}
	for i := range state {
		if len(state[i]) != len(data.State[i]) {
			return nil, fmt.Errorf("core: state vector %d size mismatch", i)
		}
		copy(state[i], data.State[i])
	}
	model.SetTraining(false)
	return &Analyzer{
		Config:      data.Config,
		Model:       model,
		Norm:        &dataset.Normalizer{Names: data.NormNames, Scale: data.NormScale},
		TargetScale: data.TargetScale,
	}, nil
}

// TrainResult captures the training trajectory.
type TrainResult struct {
	Analyzer   *Analyzer
	EpochLoss  []float64
	FinalLoss  float64
	NumParams  int
	TrainTime  time.Duration
	NumSamples int
}

// Train runs the augmented-curriculum training loop of the paper on
// prepared samples and returns a ready Analyzer. Each epoch is recorded
// on the recorder bound to ctx.
func Train(ctx context.Context, cfg Config, train []*dataset.Sample) (*TrainResult, error) {
	if len(train) == 0 {
		return nil, errors.New("core: no training samples")
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))

	working := train
	if cfg.UseAugmentation {
		working = dataset.Augment(working)
		working = dataset.Oversample(working, cfg.OversampleFake, cfg.OversampleReal)
	}
	norm := dataset.FitNormalizer(working)

	residual := cfg.ResidualMode && cfg.UseNumerical
	if residual {
		for _, s := range working {
			if s.RoughBottom == nil {
				return nil, errors.New("core: residual mode needs samples with a rough solution")
			}
		}
	}

	// Scale targets so the head trains in O(1) range.
	maxDrop := 0.0
	for _, s := range working {
		if residual {
			for i, g := range s.Golden.Data {
				d := g - s.RoughBottom.Data[i]
				if d < 0 {
					d = -d
				}
				if d > maxDrop {
					maxDrop = d
				}
			}
			continue
		}
		if m := s.Golden.Max(); m > maxDrop {
			maxDrop = m
		}
	}
	targetScale := 1.0
	if maxDrop > 0 {
		targetScale = 1 / maxDrop
	}

	model, err := cfg.buildModel(working[0].Features.Channels())
	if err != nil {
		return nil, err
	}
	model.SetTraining(true)
	params := model.Params()
	opt := nn.NewAdam(cfg.LearningRate)
	opt.GradClip = 5

	cur := dataset.Curriculum{Ramp: curriculumRamp}
	res := &TrainResult{NumParams: nn.NumParams(params), NumSamples: len(working)}

	rec := obs.FromContext(ctx)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		subset := working
		if cfg.UseCurriculum {
			subset = cur.Subset(working, epoch, cfg.Epochs, rng)
		} else {
			subset = append([]*dataset.Sample(nil), working...)
			rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		}
		epochLoss, batches := 0.0, 0
		for b := 0; b < len(subset); b += batchSize {
			end := b + batchSize
			if end > len(subset) {
				end = len(subset)
			}
			x, y := dataset.ToTensors(subset[b:end])
			norm.Apply(x)
			if residual {
				rough := dataset.RoughTensor(subset[b:end])
				for i := range y.Data {
					y.Data[i] -= rough.Data[i]
				}
			}
			for i := range y.Data {
				y.Data[i] *= targetScale
			}
			tp := nn.NewTape()
			loss := nn.WeightedMSELoss(tp, model.Forward(tp, x), y, hotspotWeights(y))
			nn.ZeroGrads(params)
			tp.Backward(loss)
			opt.Step(params)
			epochLoss += loss.Data[0]
			batches++
		}
		if batches > 0 {
			res.EpochLoss = append(res.EpochLoss, epochLoss/float64(batches))
		}
		if rec != nil && batches > 0 {
			rec.RecordEpoch(obs.EpochRecord{
				Epoch:   epoch,
				Loss:    epochLoss / float64(batches),
				LR:      opt.LR,
				Samples: len(subset),
				Batches: batches,
				Seconds: time.Since(epochStart).Seconds(),
			})
		}
	}
	if n := len(res.EpochLoss); n > 0 {
		res.FinalLoss = res.EpochLoss[n-1]
	}
	model.SetTraining(false)
	res.Analyzer = &Analyzer{Config: cfg, Model: model, Norm: norm, TargetScale: targetScale}
	res.TrainTime = time.Since(start)
	return res, nil
}

// hotspotWeights builds the per-pixel loss weights
// 1 + hotspotWeight·(|y|/max|y|) for a (scaled) target batch. Magnitudes
// are used so residual-mode targets (signed corrections) still get
// emphasis where the action is.
func hotspotWeights(y *nn.Tensor) *nn.Tensor {
	w := nn.NewTensor(y.Shape...)
	maxY := 0.0
	for _, v := range y.Data {
		if v < 0 {
			v = -v
		}
		if v > maxY {
			maxY = v
		}
	}
	if maxY == 0 { //irfusion:exact an exactly zero maximum means the map is identically zero; fall back to uniform weights
		w.Fill(1)
		return w
	}
	for i, v := range y.Data {
		if v < 0 {
			v = -v
		}
		w.Data[i] = 1 + hotspotWeight*v/maxY
	}
	return w
}

// NumericalAnalyzer is the pure numerical baseline (PowerRush-style
// budgeted PCG, or a converged golden AMG-PCG solve when Iters <= 0).
// Budgeted solves use the same preconditioner the fusion pipeline's
// rough stage uses ("ssor" by default, "amg" for the full K-cycle) so
// the Fig-7 comparison is engine-for-engine fair.
//
// Solves run through plan.Numerical: a warm start, as the request and
// the cache allow, then the one cold solve. A failing warm start is
// abandoned for the cold solve, a failing cold solve exhausts the
// ladder, and the outcome is recorded in the run manifest's
// degradation section.
type NumericalAnalyzer struct {
	Iters      int
	Resolution int
	Precond    string
	// Precision selects nothing: every solve is float64, and AnalyzeCtx
	// refuses any value but "" and "full". The field is there because
	// the frozen _bench/layers.go sets it.
	Precision string
	// Format selects nothing either: CSR is the only storage format, and
	// AnalyzeCtx refuses any value but "" and "auto". Shim for the frozen
	// _bench/layers.go; goes with ROADMAP item 1(b).
	Format string
	// CheckpointEvery selects nothing: no solve takes snapshots, and any
	// value is ignored. Shim for the frozen _bench/layers.go; goes with
	// ROADMAP item 1(b).
	CheckpointEvery int
	// Fingerprint is the analysed design's cache.DesignFingerprint when
	// the caller already holds it (the server's admission does); empty
	// means AnalyzeCtx computes it if the artifact cache applies.
	Fingerprint string
}

// AnalyzeCtx solves the design and rasterizes the bottom-layer drops,
// returning the map, runtime, and the relative residual reached. The
// PCG loop stops early with solver.ErrCancelled when ctx is cancelled,
// and stages and solves report to the recorder bound to ctx. The solve
// runs on the degradation ladder; when every rung fails the error
// wraps plan.ErrLadderExhausted.
//
// Converged analyses (Iters <= 0) are addressed by design fingerprint
// in the artifact cache bound to ctx (cache.FromContext), which lets the
// ladder open with the warm rung: the closest cached solve within
// cache.DefaultWarmDelta — the design itself at delta 0 — warm-starts
// it under the donor's cloned hierarchy; a failing warm start degrades
// to the cold AMG rung via the usual ladder mechanics. Budgeted
// analyses (Iters > 0) always run cold: their per-iteration progress
// is the quantity under study in the Fig-7 trade-off, so caching would
// corrupt the comparison.
func (n *NumericalAnalyzer) AnalyzeCtx(ctx context.Context, d *pgen.Design) (*grid.Map, time.Duration, float64, error) {
	if n.Precision != "" && n.Precision != "full" {
		return nil, 0, 0, fmt.Errorf("core: precision %q: every solve is full precision", n.Precision)
	}
	if n.Format != "" && n.Format != "auto" {
		return nil, 0, 0, fmt.Errorf("core: format %q: CSR is the only storage format", n.Format)
	}
	rec := obs.FromContext(ctx)
	start := time.Now()
	st := rec.StartStage("numerical.assemble")
	nw := d.Network
	if nw == nil { // a design that was not admitted from a deck carries no network
		var err error
		if nw, err = circuit.FromNetlist(d.Netlist); err != nil {
			return nil, 0, 0, err
		}
	}
	sys, err := nw.Assemble()
	if err != nil {
		return nil, 0, 0, err
	}
	st.End()
	st = rec.StartStage("numerical.solve")
	x := make([]float64, sys.N())
	res, err := plan.Numerical(ctx, sys, x, plan.Solve{
		Iters: n.Iters, Precond: n.Precond,
		Fingerprint: func() string {
			if n.Fingerprint != "" {
				return n.Fingerprint
			}
			return cache.DesignFingerprint(d)
		},
	})
	if err != nil {
		return nil, 0, 0, err
	}
	st.End()
	st = rec.StartStage("numerical.rasterize")
	m := features.GoldenMap(nw, sys.FullDrops(x), n.Resolution, n.Resolution)
	st.End()
	return m, time.Since(start), res.Residual, nil
}

// ModelNames exposes the registry for CLI listings.
func ModelNames() []string { return models.Names() }

// Describe formats a one-line pipeline summary.
func (c Config) Describe() string {
	return fmt.Sprintf("model=%s res=%d iters=%d base=%d depth=%d num=%v hier=%v incep=%v cbam=%v aug=%v curr=%v",
		c.ModelName, c.Resolution, c.RoughIters, c.Base, c.Depth,
		c.UseNumerical, c.Hierarchical, c.UseInception, c.UseCBAM,
		c.UseAugmentation, c.UseCurriculum)
}
