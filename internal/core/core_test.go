package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"irfusion/internal/dataset"
	"irfusion/internal/metrics"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
)

// quickCfg returns a tiny configuration that trains in well under a
// second per epoch.
func quickCfg() Config {
	cfg := Default(32)
	cfg.Base = 4
	cfg.Depth = 2
	cfg.Epochs = 6
	cfg.LearningRate = 5e-3
	return cfg
}

// tinySet builds a small train/test split once per test run.
func tinySet(t *testing.T, cfg Config, nFake, nReal int) ([]*dataset.Sample, []*dataset.Sample) {
	t.Helper()
	all, err := dataset.GenerateSet(context.Background(), nFake, nReal+1, 32, 50, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	return all[:nFake+nReal], all[nFake+nReal:]
}

func TestTrainProducesWorkingAnalyzer(t *testing.T) {
	cfg := quickCfg()
	train, test := tinySet(t, cfg, 3, 1)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumParams == 0 || res.TrainTime <= 0 {
		t.Error("training metadata missing")
	}
	if len(res.EpochLoss) != cfg.Epochs {
		t.Errorf("epoch losses %d, want %d", len(res.EpochLoss), cfg.Epochs)
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Errorf("loss did not improve: %v", res.EpochLoss)
	}
	reports := res.Analyzer.Evaluate(context.Background(), test)
	if len(reports) != 1 {
		t.Fatal("expected one report")
	}
	r := reports[0]
	if r.Runtime <= 0 {
		t.Error("runtime not charged")
	}
	// The fusion prediction must beat the trivial all-zero predictor.
	zeroMAE := test[0].Golden.Mean()
	if r.MAE >= zeroMAE {
		t.Errorf("prediction MAE %v no better than zero predictor %v", r.MAE, zeroMAE)
	}
}

func TestFusionBeatsItsOwnRoughInput(t *testing.T) {
	// The headline claim in miniature: training on rough numerical
	// features should refine (not degrade) the rough solution.
	cfg := quickCfg()
	cfg.RoughIters = 1
	cfg.Epochs = 12
	train, test := tinySet(t, cfg, 4, 2)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	s := test[0]
	pred := res.Analyzer.PredictCtx(context.Background(), s)
	mlMAE := metrics.MAE(pred, s.Golden)
	roughMAE := metrics.MAE(s.RoughBottom, s.Golden)
	if mlMAE >= roughMAE {
		t.Errorf("ML stage failed to refine the 1-iteration rough solution: ml %v vs rough %v", mlMAE, roughMAE)
	}
}

func TestPredictNonNegative(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 2
	train, test := tinySet(t, cfg, 2, 1)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	pred := res.Analyzer.PredictCtx(context.Background(), test[0])
	if pred.Min() < 0 {
		t.Error("predicted drops must be clamped non-negative")
	}
}

func TestAblationConfigsTrain(t *testing.T) {
	base := quickCfg()
	base.Epochs = 2
	variants := map[string]func(Config) Config{
		"noNumerical":  func(c Config) Config { c.UseNumerical = false; return c },
		"noHierarchy":  func(c Config) Config { c.Hierarchical = false; return c },
		"noInception":  func(c Config) Config { c.UseInception = false; return c },
		"noCBAM":       func(c Config) Config { c.UseCBAM = false; return c },
		"noAugment":    func(c Config) Config { c.UseAugmentation = false; return c },
		"noCurriculum": func(c Config) Config { c.UseCurriculum = false; return c },
	}
	for name, mut := range variants {
		cfg := mut(base)
		train, test := tinySet(t, cfg, 2, 1)
		res, err := Train(context.Background(), cfg, train)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep := res.Analyzer.Evaluate(context.Background(), test); len(rep) != 1 {
			t.Fatalf("%s: evaluation failed", name)
		}
	}
}

func TestAllRegisteredModelsTrain(t *testing.T) {
	base := quickCfg()
	base.Epochs = 2
	train, test := tinySet(t, base, 2, 1)
	for _, name := range ModelNames() {
		cfg := base
		cfg.ModelName = name
		res, err := Train(context.Background(), cfg, train)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reports := res.Analyzer.Evaluate(context.Background(), test)
		if reports[0].MAE < 0 {
			t.Fatalf("%s: bad report", name)
		}
	}
}

func TestNumericalAnalyzer(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("na", pgen.Fake, 32, 32, 7))
	if err != nil {
		t.Fatal(err)
	}
	// "full" is the only precision there is and "auto" the only format;
	// anything else is refused, not quietly solved under another name.
	golden := &NumericalAnalyzer{Iters: 0, Resolution: 32, Precision: "full", Format: "auto"}
	gm, _, gRes, err := golden.AnalyzeCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := (&NumericalAnalyzer{Resolution: 32, Precision: "half"}).AnalyzeCtx(context.Background(), d); err == nil {
		t.Error("an unknown precision was accepted")
	}
	if _, _, _, err := (&NumericalAnalyzer{Resolution: 32, Format: "csr"}).AnalyzeCtx(context.Background(), d); err == nil {
		t.Error("a retired storage format was accepted")
	}
	if gRes > 1e-9 {
		t.Errorf("golden solve residual %v", gRes)
	}
	prev := 1e18
	for _, k := range []int{1, 3, 10} {
		na := &NumericalAnalyzer{Iters: k, Resolution: 32}
		m, rt, _, err := na.AnalyzeCtx(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if rt <= 0 {
			t.Error("runtime missing")
		}
		mae := metrics.MAE(m, gm)
		if mae > prev*1.05 {
			t.Errorf("numerical MAE not improving with iterations: k=%d %v -> %v", k, prev, mae)
		}
		prev = mae
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 2
	train, _ := tinySet(t, cfg, 2, 1)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pgen.Generate(pgen.DefaultConfig("e2e", pgen.Real, 32, 32, 77))
	if err != nil {
		t.Fatal(err)
	}
	pred, rt, err := res.Analyzer.AnalyzeCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if pred.H != 32 || pred.W != 32 {
		t.Error("prediction shape wrong")
	}
	if rt <= 0 {
		t.Error("runtime missing")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(context.Background(), quickCfg(), nil); err == nil {
		t.Error("expected error for empty training set")
	}
	cfg := quickCfg()
	cfg.ModelName = "bogus"
	train, _ := tinySet(t, cfg, 1, 0)
	if _, err := Train(context.Background(), cfg, train); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestDescribe(t *testing.T) {
	s := Default(64).Describe()
	for _, want := range []string{"model=irfusion", "res=64", "cbam=true"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe missing %q: %s", want, s)
		}
	}
}

func TestAnalyzerCheckpointRoundTrip(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 2
	train, test := tinySet(t, cfg, 2, 1)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Analyzer.PredictCtx(context.Background(), test[0])
	var buf bytes.Buffer
	if err := res.Analyzer.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.PredictCtx(context.Background(), test[0])
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("restored analyzer differs at pixel %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	if restored.Config.ModelName != cfg.ModelName || restored.TargetScale != res.Analyzer.TargetScale {
		t.Error("checkpoint metadata lost")
	}
}

func TestLoadAnalyzerGarbage(t *testing.T) {
	if _, err := LoadAnalyzer(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Error("expected decode error")
	}
}

func TestHotspotWeights(t *testing.T) {
	y := nnTensorFrom([]float64{0, 0.5, 1})
	w := hotspotWeights(y)
	want := []float64{1, 2, 3}
	for i := range want {
		if w.Data[i] != want[i] {
			t.Errorf("w[%d] = %v, want %v", i, w.Data[i], want[i])
		}
	}
	z := nnTensorFrom([]float64{0, 0, 0})
	wz := hotspotWeights(z)
	for _, v := range wz.Data {
		if v != 1 {
			t.Error("zero target should give unit weights")
		}
	}
}

func nnTensorFrom(v []float64) *nn.Tensor {
	t := nn.NewTensor(len(v))
	copy(t.Data, v)
	return t
}

func TestResidualModeTrainsAndImproves(t *testing.T) {
	cfg := quickCfg()
	cfg.ResidualMode = true
	cfg.RoughIters = 4
	cfg.Epochs = 8
	train, test := tinySet(t, cfg, 4, 2)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	s := test[0]
	pred := res.Analyzer.PredictCtx(context.Background(), s)
	mlMAE := metrics.MAE(pred, s.Golden)
	roughMAE := metrics.MAE(s.RoughBottom, s.Golden)
	if mlMAE >= roughMAE {
		t.Errorf("residual correction should improve on rough: ml %v vs rough %v", mlMAE, roughMAE)
	}
}

func TestResidualModeRequiresNumerical(t *testing.T) {
	cfg := quickCfg()
	cfg.ResidualMode = true
	cfg.UseNumerical = false
	cfg.Epochs = 1
	train, _ := tinySet(t, cfg, 2, 0)
	// Without the numerical stage, residual mode silently degrades to
	// direct prediction (residual := ResidualMode && UseNumerical).
	if _, err := Train(context.Background(), cfg, train); err != nil {
		t.Fatalf("direct fallback failed: %v", err)
	}
}

func TestResidualModeCheckpointRoundTrip(t *testing.T) {
	cfg := quickCfg()
	cfg.ResidualMode = true
	cfg.Epochs = 2
	train, test := tinySet(t, cfg, 2, 1)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Analyzer.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Config.ResidualMode {
		t.Fatal("residual flag lost in checkpoint")
	}
	a := res.Analyzer.PredictCtx(context.Background(), test[0])
	b := restored.PredictCtx(context.Background(), test[0])
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("restored residual analyzer differs")
		}
	}
}

// parentConfig is Config as the previous release encoded it, with the
// five training fields it no longer has.
type parentConfig struct {
	Resolution, RoughIters int
	ModelName              string
	Base, Depth            int
	Seed                   int64

	UseNumerical, Hierarchical, UseInception, UseCBAM, UseAugmentation, UseCurriculum bool

	Epochs         int
	BatchSize      int
	LearningRate   float64
	OversampleFake int
	OversampleReal int
	CurriculumRamp float64
	HotspotWeight  float64
	ResidualMode   bool
	CosineLR       bool

	ValidationFraction float64
}

// TestLoadAnalyzerReadsParentCheckpoint: a checkpoint the previous
// release wrote, whose Config carries BatchSize, CurriculumRamp,
// HotspotWeight, CosineLR and ValidationFraction, still loads — the
// retired fields are skipped, every other field, weight and batch-norm
// statistic arrives bit for bit.
func TestLoadAnalyzerReadsParentCheckpoint(t *testing.T) {
	cfg := quickCfg()
	const inChannels = 5
	model, err := cfg.buildModel(inChannels)
	if err != nil {
		t.Fatal(err)
	}
	type parentCheckpoint struct {
		Config      parentConfig
		NormNames   []string
		NormScale   []float64
		TargetScale float64
		InChannels  int
		Params      [][]float64
		State       [][]float64
	}
	old := parentCheckpoint{
		Config: parentConfig{
			Resolution: cfg.Resolution, RoughIters: cfg.RoughIters, ModelName: cfg.ModelName,
			Base: cfg.Base, Depth: cfg.Depth, Seed: cfg.Seed,
			UseNumerical: true, Hierarchical: true, UseInception: true, UseCBAM: true,
			UseAugmentation: true, UseCurriculum: true,
			Epochs: cfg.Epochs, BatchSize: 8, LearningRate: cfg.LearningRate,
			OversampleFake: 2, OversampleReal: 5, CurriculumRamp: 0.25, HotspotWeight: 4,
			ResidualMode: true, CosineLR: true, ValidationFraction: 0.2,
		},
		NormNames:   []string{"a", "b", "c", "d", "e"},
		NormScale:   []float64{1, 0.5, 0.25, 2, 4},
		TargetScale: 37.5,
		InChannels:  inChannels,
	}
	for i, p := range model.Params() {
		w := make([]float64, len(p.Data))
		for j := range w {
			w[j] = float64(i+1) * (float64(j) - 0.3) / 7
		}
		old.Params = append(old.Params, w)
	}
	for i, s := range model.State() {
		v := make([]float64, len(s))
		for j := range v {
			v[j] = float64(i) + float64(j)/3
		}
		old.State = append(old.State, v)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	a, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatalf("parent-layout checkpoint does not load: %v", err)
	}
	if a.Config != cfg {
		t.Errorf("config = %+v, want %+v", a.Config, cfg)
	}
	if a.TargetScale != old.TargetScale || !slices.Equal(a.Norm.Scale, old.NormScale) || !slices.Equal(a.Norm.Names, old.NormNames) {
		t.Error("normalizer or target scale lost")
	}
	for i, p := range a.Model.Params() {
		if !slices.Equal(p.Data, old.Params[i]) {
			t.Fatalf("param tensor %d differs from the checkpoint", i)
		}
	}
	for i, s := range a.Model.State() {
		if !slices.Equal(s, old.State[i]) {
			t.Fatalf("state vector %d differs from the checkpoint", i)
		}
	}
}

// TestAnalyzerRunEmitsManifest drives the full pipeline (train, then
// analyze a fresh design) with a run recorder bound to the context and
// checks the resulting manifest carries the signals the observability
// layer promises: validated schema, non-zero stage timings, per-epoch
// training records and a convergence trace. The GEMM kernels count on
// the process-global nn.gemm_calls, never in the manifest.
func TestAnalyzerRunEmitsManifest(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 2
	train, _ := tinySet(t, cfg, 2, 1)

	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	gemm := obs.CounterValue("nn.gemm_calls")

	res, err := Train(ctx, cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pgen.Generate(pgen.DefaultConfig("obs-e2e", pgen.Real, 32, 32, 99))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Analyzer.AnalyzeCtx(ctx, d); err != nil {
		t.Fatal(err)
	}

	m := rec.Manifest("analyze", cfg)
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}

	timed := 0
	for _, st := range m.Stages {
		if st.Seconds > 0 {
			timed++
		}
	}
	if timed == 0 {
		t.Fatalf("no stage with non-zero wall time in %d stages", len(m.Stages))
	}
	// A fused analysis pays for the rough solve and one forward pass —
	// never for a converged (label) solve.
	stages := map[string]bool{}
	for _, st := range m.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"dataset.rough_solve", "ml.inference"} {
		if !stages[want] {
			t.Errorf("stage %q missing from manifest", want)
		}
	}
	if stages["dataset.golden_solve"] {
		t.Error("Analyze ran a golden solve: the fused pipeline builds its sample without a label")
	}

	if len(m.Epochs) != cfg.Epochs {
		t.Errorf("epochs recorded = %d, want %d", len(m.Epochs), cfg.Epochs)
	}

	trace := false
	for _, s := range m.Solves {
		if s.Iterations > 0 && len(s.History) > 0 {
			trace = true
		}
	}
	if !trace {
		t.Fatalf("no solve with a non-empty residual history (%d solves)", len(m.Solves))
	}

	if obs.CounterValue("nn.gemm_calls") == gemm {
		t.Error("global counter nn.gemm_calls did not move")
	}
	if _, ok := m.Counters["nn.gemm_calls"]; ok {
		t.Errorf("global counter nn.gemm_calls in a recorder's manifest: %v", m.Counters)
	}

	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("re-decoded manifest invalid: %v", err)
	}
}
