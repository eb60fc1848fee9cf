package irfusion

// Integration tests of the public facade, exercised the way a
// downstream user would. The full pipeline from design generation
// through training to fused analysis is the package Example
// (example_test.go).

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
