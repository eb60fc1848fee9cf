package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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
	res, err := Train(context.Background(), cfg, train)
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
// each predict 20 times on ONE analyzer, and every map must equal the
// serial prediction bit for bit. Under -race this is the test that a
// write to the shared model during inference (the per-call
// SetTraining(false) PredictCtx used to make) fails. The passes run on
// inference tapes borrowed from evalTapes: the maps are compared only
// after every goroutine is done, so one that still aliased a tape's
// block would have been overwritten by a later pass; 8 borrowers are
// more than the list keeps on most hosts, so tapes are also made and
// dropped under the others' feet, across two collections midway.
func TestPredictConcurrent(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, test := tinySet(t, cfg, 2, 0)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Analyzer
	samples := append(train, test...)
	want := make([][]float64, len(samples))
	for i, s := range samples {
		want[i] = a.PredictCtx(context.Background(), s).Data
	}

	const n, rounds = 8, 20
	var wg sync.WaitGroup
	got := make([][][]float64, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if g == 0 && k == rounds/2 {
					runtime.GC()
					runtime.GC()
				}
				got[g] = append(got[g], a.PredictCtx(context.Background(), samples[(g+k)%len(samples)]).Data)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for k, m := range got[g] {
			i := (g + k) % len(samples)
			for p := range m {
				if math.Float64bits(m[p]) != math.Float64bits(want[i][p]) {
					t.Errorf("goroutine %d round %d sample %d pixel %d: %v, serial %v", g, k, i, p, m[p], want[i][p])
					break
				}
			}
		}
	}
}

// TestEvalTapesSurviveCollections: the idle tape a pass returns is the
// one the next pass borrows, however many collections run in between —
// a sync.Pool dropped it, and the re-grown block (a 17 MB heap pass and
// a new 9 MB block at 64 px) made request cost follow GC timing.
func TestEvalTapesSurviveCollections(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, _ := tinySet(t, cfg, 2, 0)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	for len(evalTapes) > 0 { // other tests' tapes
		<-evalTapes
	}
	res.Analyzer.PredictCtx(context.Background(), train[0])
	if len(evalTapes) != 1 {
		t.Fatalf("%d idle tapes after one serial pass, want 1", len(evalTapes))
	}
	first := <-evalTapes
	evalTapes <- first
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		res.Analyzer.PredictCtx(context.Background(), train[0])
	}
	if len(evalTapes) != 1 {
		t.Fatalf("%d idle tapes after serial passes, want 1", len(evalTapes))
	}
	if tp := <-evalTapes; tp != first {
		t.Error("a collection cost the idle tape: the next pass made a new one")
	} else {
		evalTapes <- tp
	}
}

// TestAnalyzeFailsOnNonFinitePrediction: NaN in the head's bias makes
// every predicted pixel NaN; AnalyzeCtx reports it instead of returning
// the map.
func TestAnalyzeFailsOnNonFinitePrediction(t *testing.T) {
	cfg := quickCfg()
	cfg.Epochs = 1
	train, _ := tinySet(t, cfg, 2, 0)
	res, err := Train(context.Background(), cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pgen.Generate(pgen.DefaultConfig("nan", pgen.Fake, 24, 24, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := res.Analyzer.AnalyzeCtx(context.Background(), d); err != nil {
		t.Fatalf("healthy analyzer: %v", err)
	}
	params := res.Analyzer.Model.Params()
	params[len(params)-1].Data[0] = math.NaN()
	if m, _, err := res.Analyzer.AnalyzeCtx(context.Background(), d); !errors.Is(err, ErrNonFinitePrediction) || m != nil {
		t.Errorf("poisoned analyzer: map %v, error %v; want no map and ErrNonFinitePrediction", m != nil, err)
	}
}
