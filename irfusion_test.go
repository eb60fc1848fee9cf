package irfusion

// Integration tests of the public facade: the full pipeline from
// design generation through training to fused analysis, exercised the
// way a downstream user would.

import (
	"bytes"
	"context"
	"testing"

	"irfusion/internal/metrics"
)

func facadeConfig() Config {
	cfg := DefaultConfig(32)
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 4
	cfg.LearningRate = 5e-3
	return cfg
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := facadeConfig()

	// Generate data through the facade.
	cfg.Epochs = 8
	train, err := GenerateTrainingSet(4, 2, 32, 5, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if res.Analyzer == nil || res.NumParams == 0 {
		t.Fatal("training result incomplete")
	}

	// Analyze a fresh design end to end.
	design, err := GenerateDesign(DesignConfig("facade", Real, 32, 32, 123))
	if err != nil {
		t.Fatal(err)
	}
	pred, runtime, err := res.Analyzer.AnalyzeCtx(context.Background(), design)
	if err != nil {
		t.Fatal(err)
	}
	if pred.H != 32 || pred.W != 32 || runtime <= 0 {
		t.Fatalf("bad analysis output: %dx%d in %v", pred.H, pred.W, runtime)
	}

	// Compare against the golden numerical solution.
	na := &NumericalAnalyzer{Resolution: 32}
	golden, _, residual, err := na.AnalyzeCtx(context.Background(), design)
	if err != nil {
		t.Fatal(err)
	}
	if residual > 1e-9 {
		t.Fatalf("golden residual %v", residual)
	}
	rep := Evaluate(pred, golden)
	// Robust sanity bounds for a minutes-scale CI model on an
	// out-of-distribution design: errors well below the worst-case
	// drop, and a clearly positive spatial correlation.
	if rep.MAE <= 0 || rep.MAE >= 0.2*golden.Max() {
		t.Errorf("fusion prediction implausible: MAE %v vs golden max %v", rep.MAE, golden.Max())
	}
	if rep.CC < 0.3 {
		t.Errorf("fusion prediction uncorrelated with golden: CC %v", rep.CC)
	}
}

func TestFacadeCheckpointing(t *testing.T) {
	cfg := facadeConfig()
	cfg.Epochs = 2
	train, err := GenerateTrainingSet(2, 1, 32, 9, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(cfg, train)
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
	sample := train[0]
	a := res.Analyzer.PredictCtx(context.Background(), sample)
	b := restored.PredictCtx(context.Background(), sample)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("restored analyzer predicts differently")
		}
	}
}

func TestFacadeModelZoo(t *testing.T) {
	names := ModelNames()
	if len(names) != 7 {
		t.Fatalf("expected the 7 paper models, got %v", names)
	}
	cfg := facadeConfig()
	cfg.Epochs = 1
	cfg.ModelName = "maunet"
	cfg.UseNumerical = false
	cfg.Hierarchical = false
	train, err := GenerateTrainingSet(2, 0, 32, 3, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Average(res.Analyzer.Evaluate(context.Background(), train))
	if rep.MAE < 0 || rep.F1 < 0 {
		t.Error("baseline evaluation failed")
	}
}

func TestFacadeBuildSample(t *testing.T) {
	design, err := GenerateDesign(DesignConfig("bs", Fake, 32, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := facadeConfig()
	s, err := BuildSample(context.Background(), design, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.Golden.Max() <= 0 || s.Features.Channels() == 0 {
		t.Error("sample incomplete")
	}
	if s.Class != Fake {
		t.Error("class lost")
	}
}

func TestFacadeDualRailAndTransient(t *testing.T) {
	design, err := GenerateDesign(DesignConfig("ext", Fake, 32, 32, 17))
	if err != nil {
		t.Fatal(err)
	}
	systems, skipped, err := AnalyzeNets(design.DualRail())
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 || len(skipped) != 0 {
		t.Fatalf("systems=%d skipped=%v", len(systems), skipped)
	}
	tr, err := NewTransient(systems[1], 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(systems[1].I); err != nil {
		t.Fatal(err)
	}
	if tr.Time() != 1e-12 {
		t.Errorf("time = %v", tr.Time())
	}
}
