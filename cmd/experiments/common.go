package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/pgen"
)

// env_ carries the generated designs and the sample sets shared by
// the experiments.
type env_ struct {
	sc scale

	trainDesigns []*pgen.Design
	testDesigns  []*pgen.Design

	// fullTrain/fullTest carry the complete fused feature set
	// (hierarchical structural + numerical at the default budget).
	fullTrain, fullTest []*dataset.Sample
	// basicTrain/basicTest carry only the contest input images
	// (current, effective distance, PDN density) for the baselines.
	basicTrain, basicTest []*dataset.Sample

	// Trained analyzers cached across experiments (name -> analyzer).
	analyzers map[string]*core.Analyzer

	ctx context.Context // carries the run recorder

	// verdicts collects the paper-gate rows of every experiment run.
	verdicts []verdict
}

// fullOpts returns the fused-pipeline dataset options. The rough
// budget matches core.Default (calibrated so the SSOR rough base is
// informative enough for residual correction; see DESIGN.md).
func (e *env_) fullOpts() dataset.Options {
	opts := dataset.DefaultOptions(e.sc.Res, e.sc.Res)
	opts.RoughIters = core.Default(e.sc.Res).RoughIters
	return opts
}

// basicOpts returns the baseline dataset options (no numerical
// features, collapsed layers).
func (e *env_) basicOpts() dataset.Options {
	opts := dataset.DefaultOptions(e.sc.Res, e.sc.Res)
	opts.IncludeNumerical = false
	opts.Hierarchical = false
	return opts
}

// isBasicChannel keeps the three contest input images.
func isBasicChannel(name string) bool {
	return strings.HasPrefix(name, "current") || name == "eff_dist" || name == "pdn_density"
}

// prepare generates designs and builds the shared sample sets.
func prepare(ctx context.Context, sc scale) (*env_, error) {
	e := &env_{sc: sc, analyzers: map[string]*core.Analyzer{}, ctx: ctx}

	gen := func(name string, class pgen.Class, seed int64) (*pgen.Design, error) {
		return pgen.Generate(pgen.DefaultConfig(name, class, sc.Res, sc.Res, seed))
	}
	for i := 0; i < sc.Fake; i++ {
		d, err := gen(fmt.Sprintf("fake%02d", i), pgen.Fake, sc.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		e.trainDesigns = append(e.trainDesigns, d)
	}
	for i := 0; i < sc.RealTrain; i++ {
		d, err := gen(fmt.Sprintf("real%02d", i), pgen.Real, sc.Seed+1000+int64(i))
		if err != nil {
			return nil, err
		}
		e.trainDesigns = append(e.trainDesigns, d)
	}
	for i := 0; i < sc.RealTest; i++ {
		d, err := gen(fmt.Sprintf("test%02d", i), pgen.Real, sc.Seed+2000+int64(i))
		if err != nil {
			return nil, err
		}
		e.testDesigns = append(e.testDesigns, d)
	}

	var err error
	e.fullTrain, err = e.buildSamples(e.trainDesigns, e.fullOpts())
	if err != nil {
		return nil, err
	}
	e.fullTest, err = e.buildSamples(e.testDesigns, e.fullOpts())
	if err != nil {
		return nil, err
	}
	bt, err := e.buildSamples(e.trainDesigns, e.basicOpts())
	if err != nil {
		return nil, err
	}
	bs, err := e.buildSamples(e.testDesigns, e.basicOpts())
	if err != nil {
		return nil, err
	}
	e.basicTrain = dataset.FilterFeatures(bt, isBasicChannel)
	e.basicTest = dataset.FilterFeatures(bs, isBasicChannel)
	return e, nil
}

func (e *env_) buildSamples(designs []*pgen.Design, opts dataset.Options) ([]*dataset.Sample, error) {
	out := make([]*dataset.Sample, 0, len(designs))
	for _, d := range designs {
		s, err := dataset.BuildCtx(e.ctx, d, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// baseConfig returns the shared training configuration.
func (e *env_) baseConfig() core.Config {
	cfg := core.Default(e.sc.Res)
	cfg.Base = e.sc.Base
	cfg.Depth = e.sc.Depth
	cfg.Epochs = e.sc.Epochs
	cfg.LearningRate = e.sc.LR
	cfg.Seed = e.sc.Seed
	return cfg
}

// trainModel trains (or returns the cached) analyzer for a registry
// model name using the appropriate sample set.
func (e *env_) trainModel(name string) (*core.Analyzer, error) {
	if a, ok := e.analyzers[name]; ok {
		return a, nil
	}
	cfg := e.baseConfig()
	cfg.ModelName = name
	train := e.fullTrain
	if name != "irfusion" {
		// Baselines consume the contest images only.
		cfg.UseNumerical = false
		cfg.Hierarchical = false
		train = e.basicTrain
	}
	log.Printf("training %s on %d designs (%d epochs)...", name, len(train), cfg.Epochs)
	res, err := core.Train(e.ctx, cfg, train)
	if err != nil {
		return nil, err
	}
	log.Printf("  %s: %d params, final loss %.4g, %.1fs",
		name, res.NumParams, res.FinalLoss, res.TrainTime.Seconds())
	e.analyzers[name] = res.Analyzer
	return res.Analyzer, nil
}

// trainSweepModel trains the Fig-7 fusion model on samples whose
// numerical features come from MIXED iteration budgets, so a single
// model remains calibrated across the whole 1-10 sweep (a model
// trained at one fixed budget misreads features from other budgets).
func (e *env_) trainSweepModel() (*core.Analyzer, error) {
	if a, ok := e.analyzers["irfusion-sweep"]; ok {
		return a, nil
	}
	var train []*dataset.Sample
	for _, k := range []int{1, 2, 4, 7, 10} {
		opts := e.fullOpts()
		opts.RoughIters = k
		s, err := e.buildSamples(e.trainDesigns, opts)
		if err != nil {
			return nil, err
		}
		train = append(train, s...)
	}
	cfg := e.baseConfig()
	cfg.ModelName = "irfusion"
	// The budget mix already multiplies the set; skip oversampling to
	// keep epochs affordable.
	cfg.OversampleFake = 1
	cfg.OversampleReal = 2
	log.Printf("training irfusion-sweep on %d mixed-budget samples (%d epochs)...", len(train), cfg.Epochs)
	res, err := core.Train(e.ctx, cfg, train)
	if err != nil {
		return nil, err
	}
	log.Printf("  irfusion-sweep: %d params, final loss %.4g, %.1fs",
		res.NumParams, res.FinalLoss, res.TrainTime.Seconds())
	e.analyzers["irfusion-sweep"] = res.Analyzer
	return res.Analyzer, nil
}

// testSetFor picks the evaluation samples matching a model's inputs.
func (e *env_) testSetFor(name string) []*dataset.Sample {
	if name == "irfusion" {
		return e.fullTest
	}
	return e.basicTest
}
