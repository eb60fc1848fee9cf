package irfusion

// Benchmark harness: one benchmark family per table/figure of the
// paper's evaluation section, plus micro-benchmarks for the numerical
// substrate (the Fig-3 solver stages). Regenerating the actual
// numbers is done by cmd/experiments; these benches measure the cost
// of each pipeline stage with testing.B.
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"irfusion/internal/amg"
	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/cluster"
	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/features"
	"irfusion/internal/models"
	"irfusion/internal/nn"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

const benchRes = 48

type fixtures struct {
	design *pgen.Design
	nw     *circuit.Network
	sys    *circuit.System
	hier   *amg.Hierarchy
	sample *dataset.Sample
	deck   string
}

var (
	fixOnce sync.Once
	fix     fixtures
)

func benchFixtures(b *testing.B) *fixtures {
	b.Helper()
	fixOnce.Do(func() {
		d, err := pgen.Generate(pgen.DefaultConfig("bench", pgen.Real, benchRes, benchRes, 7))
		if err != nil {
			panic(err)
		}
		fix.design = d
		fix.deck = d.Netlist.String()
		nw, err := circuit.FromNetlist(d.Netlist)
		if err != nil {
			panic(err)
		}
		fix.nw = nw
		sys, err := nw.Assemble()
		if err != nil {
			panic(err)
		}
		fix.sys = sys
		h, err := amg.Build(sys.G, amg.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fix.hier = h
		s, err := dataset.BuildCtx(context.Background(), d, dataset.DefaultOptions(benchRes, benchRes))
		if err != nil {
			panic(err)
		}
		fix.sample = s
	})
	return &fix
}

// --- TABLE I: per-model inference cost ------------------------------

func benchModelInference(b *testing.B, name string) {
	f := benchFixtures(b)
	m, err := models.New(name, models.Config{
		InChannels: f.sample.Features.Channels(), Base: 8, Depth: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.SetTraining(false)
	x, _ := dataset.ToTensors([]*dataset.Sample{f.sample})
	// As served (core.PredictCtx): one inference tape, reset per pass;
	// the pass before the timer sizes its block. What the tape saves is
	// bytes, so B/op is reported and gated beside allocs/op.
	tp := nn.NewEvalTape()
	m.Forward(tp, x)
	tp.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(tp, x)
		tp.Reset()
	}
}

func BenchmarkTable1Inference(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) { benchModelInference(b, name) })
	}
}

// BenchmarkTable1TrainStep measures one optimizer step (forward +
// backward + Adam) for the proposed model and the strongest baseline.
func BenchmarkTable1TrainStep(b *testing.B) {
	for _, name := range []string{"irfusion", "maunet"} {
		b.Run(name, func(b *testing.B) {
			f := benchFixtures(b)
			m, err := models.New(name, models.Config{
				InChannels: f.sample.Features.Channels(), Base: 8, Depth: 2, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			x, y := dataset.ToTensors([]*dataset.Sample{f.sample})
			params := m.Params()
			opt := nn.NewAdam(1e-3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := nn.NewTape()
				loss := nn.MSELoss(tp, m.Forward(tp, x), y)
				nn.ZeroGrads(params)
				tp.Backward(loss)
				opt.Step(params)
			}
		})
	}
}

// --- Fig 6: rendering cost -------------------------------------------

func BenchmarkFig6RenderPGM(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.sample.Golden.PGM()
	}
}

// --- Fig 7: budgeted numerical solves and the fusion numerical stage -

func BenchmarkFig7NumericalBudget(b *testing.B) {
	f := benchFixtures(b)
	for _, k := range []int{1, 2, 5, 10} {
		b.Run(benchName("iters", k), func(b *testing.B) {
			pre := solver.NewSSOR(f.sys.G, 2)
			x := make([]float64, f.sys.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = 0
				}
				if _, err := solver.PCG(f.sys.G, x, f.sys.I, pre, solver.RoughOptions(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7FusionNumericalStage measures the full numerical stage
// of the fused pipeline: rough solve + hierarchical feature build.
func BenchmarkFig7FusionNumericalStage(b *testing.B) {
	f := benchFixtures(b)
	opts := dataset.DefaultOptions(benchRes, benchRes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.BuildCtx(context.Background(), f.design, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 8: ablation variant training cost ---------------------------

func BenchmarkFig8AblationStep(b *testing.B) {
	f := benchFixtures(b)
	variants := map[string][3]bool{ // inception, attnGate, cbam
		"full":        {true, true, true},
		"noInception": {false, true, true},
		"noCBAM":      {true, true, false},
	}
	for name, v := range variants {
		b.Run(name, func(b *testing.B) {
			m := models.NewIRFusionNetAblated(models.Config{
				InChannels: f.sample.Features.Channels(), Base: 8, Depth: 2, Seed: 1,
			}, v[0], v[1], v[2])
			x, y := dataset.ToTensors([]*dataset.Sample{f.sample})
			params := m.Params()
			opt := nn.NewAdam(1e-3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp := nn.NewTape()
				loss := nn.MSELoss(tp, m.Forward(tp, x), y)
				nn.ZeroGrads(params)
				tp.Backward(loss)
				opt.Step(params)
			}
		})
	}
}

// --- Numerical substrate (Fig 3 stages) ------------------------------

// benchSystem assembles the real-class pgen deck of the given die size
// (seed 1001: the decks of EXPERIMENTS.md "AMG at its arithmetic
// cost").
func benchSystem(b *testing.B, die int) *circuit.System {
	b.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("bench", pgen.Real, die, die, 1001))
	if err != nil {
		b.Fatal(err)
	}
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkSolverStageSetup(b *testing.B) {
	for _, die := range []int{48, 128} {
		b.Run(benchName("die", die), func(b *testing.B) {
			sys := benchSystem(b, die)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := amg.Build(sys.G, amg.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverConverged times a converged solve per preconditioner
// on the fixture die, and AMG-PCG on the 512 µm die (96 130 unknowns,
// 348 764 stored entries, past SpMV's measured parallel break-even):
// the row a proposal to parallelise the numerical stage again has to
// beat (EXPERIMENTS.md "One serial numerical core").
func BenchmarkSolverConverged(b *testing.B) {
	f := benchFixtures(b)
	pres := map[string]solver.Preconditioner{
		"CG":       solver.Identity{},
		"JacobiPC": solver.NewJacobi(f.sys.G),
		"SSOR2PC":  solver.NewSSOR(f.sys.G, 2),
		"AMGKPC":   f.hier,
	}
	for name, pre := range pres {
		b.Run(name, func(b *testing.B) { benchConverged(b, f.sys, pre, name == "AMGKPC") })
	}
	b.Run(benchName("die", 512), func(b *testing.B) {
		b.Run("AMGKPC", func(b *testing.B) {
			sys := benchSystem(b, 512)
			h, err := amg.Build(sys.G, amg.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			benchConverged(b, sys, h, true)
		})
	})
}

func benchConverged(b *testing.B, sys *circuit.System, pre solver.Preconditioner, flexible bool) {
	x := make([]float64, sys.N())
	opts := solver.Options{Tol: 1e-10, MaxIter: 20000, Flexible: flexible}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x {
			x[j] = 0
		}
		res, err := solver.PCG(sys.G, x, sys.I, pre, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

func BenchmarkSolverSpMV(b *testing.B) {
	f := benchFixtures(b)
	x := make([]float64, f.sys.N())
	y := make([]float64, f.sys.N())
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sys.G.MulVec(y, x)
	}
}

// --- Front end and features ------------------------------------------

func BenchmarkSpiceParse(b *testing.B) {
	f := benchFixtures(b)
	b.SetBytes(int64(len(f.deck)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spice.ParseString(f.deck); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeckFrontEnd is what a deck the service has not seen byte
// for byte costs before any solve, hop by hop, on the 128 µm real-class
// deck the cold_numerical workload sends: one scan (parse), the whole
// admission (admit: serve.DeckDesign = parse + lint and network in one
// walk + die size), one canonical walk per digest (fingerprint,
// routing — the gateway's), and stamping G from the admitted network
// (assemble). bench-check gates their allocs/op strictly: the
// allocation is what the front end's cost under load is made of.
func BenchmarkDeckFrontEnd(b *testing.B) {
	gen, err := pgen.Generate(pgen.DefaultConfig("bench", pgen.Real, 128, 128, 1))
	if err != nil {
		b.Fatal(err)
	}
	deck := gen.Netlist.String()
	d, err := serve.DeckDesign("request", deck, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, hop := range []struct {
		name string
		run  func() error
	}{
		{"parse", func() error { _, err := spice.ParseString(deck); return err }},
		{"admit", func() error { _, err := serve.DeckDesign("request", deck, 0); return err }},
		{"fingerprint", func() error { cache.DesignFingerprint(d); return nil }},
		{"routing", func() error { cache.RoutingFingerprint(d); return nil }},
		{"assemble", func() error { _, err := d.Network.Assemble(); return err }},
	} {
		b.Run(hop.name, func(b *testing.B) {
			b.ReportAllocs()
			if hop.name == "parse" {
				b.SetBytes(int64(len(deck)))
			}
			b.ResetTimer() // the deck was generated above, outside every loop
			for i := 0; i < b.N; i++ {
				if err := hop.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// fingerprint-shared-prefix: a chain of R cards, shuffled, whose node
	// names all share a 120-byte stem, at N and 2N cards. A sort that
	// rescans the stem on every comparison, or goes quadratic on it,
	// shows in the ratio of the two rows.
	stem := strings.Repeat("n1_m1_stem_", 11)[:120]
	for _, n := range []int{4096, 8192} {
		nl := &spice.Netlist{}
		for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
			a, z := fmt.Sprintf("%s%d", stem, i), fmt.Sprintf("%s%d", stem, i+1)
			nl.Elements = append(nl.Elements, spice.Element{Type: spice.Resistor, Name: "R", NodeA: a, NodeB: z, Value: float64(1 + i%4)})
		}
		d := &pgen.Design{W: 128, H: 128, VDD: 1.1, Netlist: nl}
		b.Run(fmt.Sprintf("fingerprint-shared-prefix/cards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache.DesignFingerprint(d)
			}
		})
	}
}

func BenchmarkMNAAssemble(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.nw.Assemble(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStructureFeatures(b *testing.B) {
	f := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.StructureFeatures(f.nw, benchRes, benchRes)
	}
}

// BenchmarkStructureFeatureMaps times each structural map of
// BenchmarkStructureFeatures alone: the per-channel cost of the
// feature stage, which no manifest reports.
func BenchmarkStructureFeatureMaps(b *testing.B) {
	f := benchFixtures(b)
	for _, m := range []struct {
		name  string
		build func()
	}{
		{"current", func() { features.CurrentMaps(f.nw, benchRes, benchRes) }},
		{"eff_dist", func() { features.EffectiveDistanceMap(f.nw, benchRes, benchRes) }},
		{"pdn_density", func() { features.DensityMap(f.nw, benchRes, benchRes) }},
		{"resistance", func() { features.ResistanceMap(f.nw, benchRes, benchRes) }},
		{"sp_resistance", func() { features.ShortestPathResistanceMap(f.nw, benchRes, benchRes) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.build()
			}
		})
	}
}

// BenchmarkDesignGeneration splits a real deck's input cost in two:
// generate (pgen.Generate: geometry, rng draws, prune, names) and
// render (Netlist.String: the SPICE text a request carries), at the
// 64 µm and 128 µm dies of the end-to-end benchmark.
func BenchmarkDesignGeneration(b *testing.B) {
	for _, die := range []int{64, 128} {
		cfg := pgen.DefaultConfig("g", pgen.Real, die, die, 7)
		d, err := pgen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("die=%d/generate", die), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pgen.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("die=%d/render", die), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = d.Netlist.String()
			}
		})
	}
}

// BenchmarkEndToEndNumerical measures the complete pure-numerical
// analysis (the PowerRush column of the trade-off study).
func BenchmarkEndToEndNumerical(b *testing.B) {
	f := benchFixtures(b)
	na := &core.NumericalAnalyzer{Iters: 0, Resolution: benchRes}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := na.AnalyzeCtx(context.Background(), f.design); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ECO-loop caching (docs/CACHING.md) -------------------------------

// BenchmarkCacheECOLoop measures one converged end-to-end analysis in
// the three cache regimes of an ECO iteration loop:
//
//	cold  caching off — every run pays assembly + AMG setup + solve
//	hit   identical design against a warm cache — a warm start at
//	      delta 0: PCG stops at iteration 0 on the cached solution, so
//	      the donor search and one SpMV replace AMG setup and the solve
//	warm  a 1%-perturbed design against a cache holding only the
//	      baseline — delta match, donor-preconditioned warm solve (a
//	      warm-started variant is not stored, so every op runs the
//	      neighbor search against the baseline)
//
// bench-check pins cold/hit ≥ 2 as the machine-independent ECO-loop
// speedup gate (see bench.baseline "ratios").
func BenchmarkCacheECOLoop(b *testing.B) {
	f := benchFixtures(b)
	na := &core.NumericalAnalyzer{Iters: 0, Resolution: benchRes}
	run := func(b *testing.B, ctx context.Context, d *pgen.Design) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
				b.Fatal(err)
			}
		}
	}
	prime := func(b *testing.B) context.Context {
		ctx := cache.WithCache(context.Background(), cache.New(0, 0))
		if _, _, _, err := na.AnalyzeCtx(ctx, f.design); err != nil {
			b.Fatal(err)
		}
		return ctx
	}
	b.Run("cold", func(b *testing.B) {
		run(b, context.Background(), f.design)
	})
	b.Run("hit", func(b *testing.B) {
		run(b, prime(b), f.design)
	})
	b.Run("warm", func(b *testing.B) {
		run(b, prime(b), pgen.Perturb(f.design, 0.01, 99))
	})
}

// BenchmarkAnalyzeRepeat is one round trip of a byte-identical
// resubmission — a 128 µm deck already answered once — straight to a
// server and through a gateway in front of it: the body is read into a
// pooled buffer at each hop, hashed with a seeded maphash (at the
// gateway for routing; at the server as the memo key, the hit confirmed
// by comparing the bytes), found in the routing memo at the gateway and
// answered from the server's one memo entry for the body. ns/op is what
// a repeat costs; B/op what it allocates, client side included.
func BenchmarkAnalyzeRepeat(b *testing.B) {
	d, err := pgen.Generate(pgen.DefaultConfig("repeat", pgen.Real, 128, 128, 7))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(serve.AnalyzeRequest{Spice: d.Netlist.String()})
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(serve.Config{Name: "s0"})
	shard := httptest.NewServer(srv.Handler())
	gw, err := cluster.New(cluster.Config{Shards: []cluster.ShardSpec{{Name: "s0", URL: shard.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(gw.Handler())
	defer func() {
		front.Close()
		_ = gw.Close(context.Background())
		shard.Close()
		_ = srv.Close(context.Background())
	}()
	post := func(url string) {
		resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, read %v", resp.StatusCode, err)
		}
	}
	for _, row := range []struct{ name, url string }{{"direct", shard.URL}, {"gateway", front.URL}} {
		post(row.url) // the first submission fills the memos
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(row.url)
			}
		})
	}
}

func benchName(prefix string, k int) string {
	return fmt.Sprintf("%s=%d", prefix, k)
}

// --- Design-choice ablation benches (DESIGN.md §5) --------------------
// These quantify the solver design decisions: K- vs V-cycle, double
// vs single pairwise aggregation, and flexible vs standard PCG.

// BenchmarkAblationCycleType is the V-vs-K rule by one command: the
// converged solve per cycle type over the die axis, with the iteration
// count and the cost of one preconditioner application per arm (K is
// two FCG steps on the first coarse level, V-cycles beneath).
func BenchmarkAblationCycleType(b *testing.B) {
	for _, die := range []int{48, 128, 256} {
		sys := benchSystem(b, die)
		for _, cyc := range []amg.Cycle{amg.VCycle, amg.KCycle} {
			b.Run(fmt.Sprintf("die=%d/%v", die, cyc), func(b *testing.B) {
				opts := amg.DefaultOptions()
				opts.Cycle = cyc
				h, err := amg.Build(sys.G, opts)
				if err != nil {
					b.Fatal(err)
				}
				x := make([]float64, sys.N())
				var iters int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range x {
						x[j] = 0
					}
					res, err := solver.PCG(sys.G, x, sys.I, h,
						solver.Options{Tol: 1e-10, MaxIter: 500, Flexible: true})
					if err != nil || !res.Converged {
						b.Fatalf("err=%v converged=%v", err, res.Converged)
					}
					iters = res.Iterations
				}
				b.StopTimer()
				const applies = 50
				start := time.Now()
				for i := 0; i < applies; i++ {
					h.Apply(x, sys.I)
				}
				b.ReportMetric(float64(time.Since(start).Microseconds())/applies, "apply-µs")
				b.ReportMetric(float64(iters), "iters")
			})
		}
	}
}

func BenchmarkAblationAggregation(b *testing.B) {
	f := benchFixtures(b)
	for _, aggressive := range []bool{false, true} {
		name := "single"
		if aggressive {
			name = "double"
		}
		b.Run(name, func(b *testing.B) {
			opts := amg.DefaultOptions()
			opts.Aggressive = aggressive
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := amg.Build(f.sys.G, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(h.OperatorComplexity(), "op-complexity")
			}
		})
	}
}

func BenchmarkAblationFlexiblePCG(b *testing.B) {
	f := benchFixtures(b)
	for _, flex := range []bool{false, true} {
		name := "standard"
		if flex {
			name = "flexible"
		}
		b.Run(name, func(b *testing.B) {
			x := make([]float64, f.sys.N())
			pre := solver.NewJacobi(f.sys.G)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = 0
				}
				if _, err := solver.PCG(f.sys.G, x, f.sys.I, pre,
					solver.Options{Tol: 1e-10, MaxIter: 20000, Flexible: flex}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
