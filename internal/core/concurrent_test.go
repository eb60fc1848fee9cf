package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
)

// TestConcurrentNumericalAnalyzeManifestIsolation runs N numerical
// analyses in parallel, each under its own context-bound recorder
// (obs.WithRecorder), and checks every manifest contains exactly the
// records of its own run: one "numerical" solve with that goroutine's
// iteration budget, every stage executed once, and only its own
// counter. Any cross-talk means recorder state leaked between
// concurrent analyses. Run under -race this also exercises the shared
// worker pool from competing solves.
func TestConcurrentNumericalAnalyzeManifestIsolation(t *testing.T) {
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			iters := 2 + i%5 // distinct budgets to tell runs apart
			d, err := pgen.Generate(pgen.DefaultConfig(fmt.Sprintf("conc-%d", i), pgen.Fake, 24, 24, int64(i+1)))
			if err != nil {
				errs <- err
				return
			}
			rec := obs.NewRecorder()
			rec.Add("test.analyze", 1)
			ctx := obs.WithRecorder(context.Background(), rec)
			na := &NumericalAnalyzer{Iters: iters, Resolution: 24, Precond: "ssor"}
			if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
				errs <- fmt.Errorf("run %d: %w", i, err)
				return
			}
			m := rec.Manifest("test.numerical", nil)
			if err := m.Validate(); err != nil {
				errs <- fmt.Errorf("run %d: %w", i, err)
				return
			}
			if len(m.Solves) != 1 || m.Solves[0].Label != plan.RungSSOR {
				errs <- fmt.Errorf("run %d: cross-talk: solves %+v", i, m.Solves)
				return
			}
			if got := m.Solves[0].Iterations; got != iters {
				errs <- fmt.Errorf("run %d: solve ran %d iterations, want own budget %d", i, got, iters)
				return
			}
			if m.Counters["test.analyze"] != 1 {
				errs <- fmt.Errorf("run %d: counter %d, want 1", i, m.Counters["test.analyze"])
				return
			}
			for _, st := range m.Stages {
				if st.Count != 1 {
					errs <- fmt.Errorf("run %d: cross-talk: stage %s ran %d times", i, st.Name, st.Count)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentFusedAnalyzeManifestIsolation is the fused-pipeline
// counterpart: one tiny model is trained once, then each goroutine
// analyzes with its own deserialized copy (each sets its own
// Config.RoughIters; sharing one analyzer is TestPredictConcurrent)
// under its own recorder, with a distinct rough-solve budget as the
// fingerprint.
func TestConcurrentFusedAnalyzeManifestIsolation(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, _ := tinySet(t, cfg, 2, 0)
	res, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Analyzer.Save(&buf); err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := LoadAnalyzer(bytes.NewReader(buf.Bytes()))
			if err != nil {
				errs <- err
				return
			}
			a.Config.RoughIters = 2 + i%4
			d, err := pgen.Generate(pgen.DefaultConfig(fmt.Sprintf("fused-%d", i), pgen.Fake, 24, 24, int64(i+1)))
			if err != nil {
				errs <- err
				return
			}
			rec := obs.NewRecorder()
			rec.Add("test.analyze", 1)
			ctx := obs.WithRecorder(context.Background(), rec)
			if _, _, err := a.AnalyzeCtx(ctx, d); err != nil {
				errs <- fmt.Errorf("run %d: %w", i, err)
				return
			}
			m := rec.Manifest("test.fused", nil)
			if err := m.Validate(); err != nil {
				errs <- fmt.Errorf("run %d: %w", i, err)
				return
			}
			// A fused analysis builds its label-free sample then runs
			// inference: exactly one solve, the rough one at this
			// goroutine's budget.
			if len(m.Solves) != 1 {
				errs <- fmt.Errorf("run %d: cross-talk: %d solves %+v", i, len(m.Solves), m.Solves)
				return
			}
			var rough *obs.SolveRecord
			for k := range m.Solves {
				if m.Solves[k].Label == "rough" {
					rough = &m.Solves[k]
				}
			}
			if rough == nil {
				errs <- fmt.Errorf("run %d: no rough solve in %+v", i, m.Solves)
				return
			}
			if rough.Iterations != a.Config.RoughIters {
				errs <- fmt.Errorf("run %d: rough solve ran %d iterations, want own budget %d", i, rough.Iterations, a.Config.RoughIters)
				return
			}
			if m.Counters["test.analyze"] != 1 {
				errs <- fmt.Errorf("run %d: counter %d, want 1", i, m.Counters["test.analyze"])
				return
			}
			for _, st := range m.Stages {
				if st.Count != 1 {
					errs <- fmt.Errorf("run %d: cross-talk: stage %s ran %d times", i, st.Name, st.Count)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPredictConcurrent pins that prediction is reentrant: 8 goroutines
// each predict 3 samples on ONE analyzer, and every map must equal the
// serial prediction bit for bit. Under -race this is the test that a
// write to the shared model during inference (the per-call
// SetTraining(false) PredictCtx used to make) fails.
func TestPredictConcurrent(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, test := tinySet(t, cfg, 2, 0)
	res, err := Train(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analyzer
	samples := append(train, test...)
	want := make([][]float64, len(samples))
	for i, s := range samples {
		want[i] = a.Predict(s).Data
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n*len(samples))
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range samples {
				i := (g + k) % len(samples)
				got := a.Predict(samples[i]).Data
				for p := range got {
					if math.Float64bits(got[p]) != math.Float64bits(want[i][p]) {
						errs <- fmt.Errorf("goroutine %d sample %d pixel %d: %v, serial %v", g, i, p, got[p], want[i][p])
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
