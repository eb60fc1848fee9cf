// Command irfusion is the command-line front end of the IR-Fusion
// library:
//
//	irfusion gen      -out design.sp [-class real] [-size 64] [-seed 1] [-config cfg.json]
//	irfusion solve    -spice design.sp [-iters 0] [-tol 1e-10] [-pgm drop.pgm]
//	irfusion analyze  [-spice design.sp] [-iters 0] [-model-file model.bin] [-manifest run.json]
//	irfusion transient -spice design.sp [-h 1e-12] [-steps 100] [-burst 20]
//	irfusion serve    [-addr localhost:8080] [-workers 2] [-queue 16] [-model-file model.bin]
//	irfusion gateway  -shards a=http://h1:8080,b=http://h2:8080 [-addr localhost:8090]
//	irfusion train    -model irfusion [-fake 8 -real 4 -epochs 10] -out model.bin
//	irfusion predict  -spice design.sp -model-file model.bin [-pgm pred.pgm]
//	irfusion models
//
// "solve" is the pure numerical flow (SPICE → MNA → AMG-PCG);
// "analyze" is the instrumented end-to-end run (numerical or fused)
// that can emit a JSON run manifest; "transient" integrates dynamic IR
// drop over C cards; "predict" runs the fused pipeline with a trained
// model.
//
// solve, analyze, train, and predict accept -manifest FILE to write a
// structured run manifest (stage timings, convergence traces, pool
// utilization) and -debug-addr ADDR to serve live expvar counters and
// pprof profiles during the run. analyze and serve additionally accept
// -faults SPEC to install a fault-injection profile (same grammar as
// IRFUSION_FAULTS; see internal/faults) for degradation rehearsals.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"irfusion/internal/amg"
	"irfusion/internal/circuit"
	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/features"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "transient":
		err = cmdTransient(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "gateway":
		err = cmdGateway(os.Args[2:])
	case "models":
		for _, n := range core.ModelNames() {
			fmt.Println(n)
		}
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: irfusion <command> [flags]

commands:
  gen      generate a synthetic power-grid SPICE deck
  solve    numerical IR-drop analysis (AMG-PCG)
  analyze  instrumented end-to-end analysis; -manifest writes a JSON run manifest
  transient dynamic IR-drop analysis (backward Euler over C cards)
  serve    long-lived HTTP analysis service (POST /v1/analyze; see docs/SERVING.md)
  gateway  cluster gateway routing a shard fleet by cache affinity (see docs/CLUSTER.md)
  train    train a fusion model on generated designs
  predict  fused numerical+ML IR-drop prediction
  models   list registered model architectures

solve, analyze, serve, train, and predict also take -manifest FILE and -debug-addr ADDR.
analyze and serve also take -faults SPEC to inject failures and rehearse the
degradation ladder (see docs/RESILIENCE.md).`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "design.sp", "output SPICE file")
	class := fs.String("class", "fake", "design class: fake|real")
	size := fs.Int("size", 64, "die size in um (square)")
	seed := fs.Int64("seed", 1, "generator seed")
	configIn := fs.String("config", "", "JSON generator config (overrides other flags)")
	configOut := fs.String("dump-config", "", "write the effective generator config as JSON")
	fs.Parse(args)

	var cfg pgen.Config
	if *configIn != "" {
		f, err := os.Open(*configIn)
		if err != nil {
			return err
		}
		cfg, err = pgen.ReadConfig(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		c := pgen.Fake
		if *class == "real" {
			c = pgen.Real
		}
		cfg = pgen.DefaultConfig("cli", c, *size, *size, *seed)
	}
	if *configOut != "" {
		f, err := os.Create(*configOut)
		if err != nil {
			return err
		}
		err = pgen.WriteConfig(f, cfg)
		f.Close()
		if err != nil {
			return err
		}
		log.Printf("wrote %s", *configOut)
	}
	d, err := pgen.Generate(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Netlist.Write(f); err != nil {
		return err
	}
	nr, ni, nv := d.Netlist.Counts()
	log.Printf("wrote %s: %d resistors, %d current loads, %d pads", *out, nr, ni, nv)
	return nil
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	deck := fs.String("spice", "", "input SPICE file (required)")
	iters := fs.Int("iters", 0, "iteration budget (0 = converge)")
	tol := fs.Float64("tol", 1e-10, "relative residual tolerance")
	pgm := fs.String("pgm", "", "write the bottom-layer drop map as PGM")
	res := fs.Int("res", 0, "raster resolution (default: die size)")
	of := addObsFlags(fs)
	fs.Parse(args)
	if *deck == "" {
		return fmt.Errorf("solve: -spice is required")
	}
	finish := of.start("solve", map[string]any{
		"spice": *deck, "iters": *iters, "tol": *tol,
	})

	f, err := os.Open(*deck)
	if err != nil {
		return err
	}
	nl, err := spice.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	nw, err := circuit.FromNetlist(nl)
	if err != nil {
		return err
	}
	sys, err := nw.Assemble()
	if err != nil {
		return err
	}
	log.Printf("system: %d unknowns, %d nonzeros, total load %.4g A",
		sys.N(), sys.G.NNZ(), sys.TotalLoad())

	start := time.Now()
	h, err := amg.Build(sys.G, amg.DefaultOptions())
	if err != nil {
		return err
	}
	log.Printf("AMG setup: %d levels, operator complexity %.2f (%.1f ms)",
		h.NumLevels(), h.OperatorComplexity(), float64(time.Since(start).Microseconds())/1000)

	opts := solver.Options{Tol: *tol, MaxIter: 1000, Flexible: true, Record: true, Label: "solve"}
	if *iters > 0 {
		opts = solver.RoughOptions(*iters)
		opts.Label = "solve"
	}
	x := make([]float64, sys.N())
	t0 := time.Now()
	resu, err := solver.PCG(sys.G, x, sys.I, h, opts)
	if err != nil {
		return err
	}
	log.Printf("AMG-PCG: %d iterations, relative residual %.3g (%.1f ms)",
		resu.Iterations, resu.Residual, float64(time.Since(t0).Microseconds())/1000)

	maxDrop, sum := 0.0, 0.0
	for _, v := range x {
		if v > maxDrop {
			maxDrop = v
		}
		sum += v
	}
	log.Printf("worst-case IR drop: %.4g V, mean %.4g V", maxDrop, sum/float64(len(x)))

	if *pgm != "" {
		r := *res
		if r == 0 {
			r = dieSize(nw)
		}
		m := features.GoldenMap(nw, sys.FullDrops(x), r, r)
		if err := os.WriteFile(*pgm, []byte(m.PGM()), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s (%dx%d)", *pgm, r, r)
	}
	return finish()
}

// dieSize infers a raster size from node coordinates.
func dieSize(nw *circuit.Network) int {
	max := 0
	for i := 0; i < nw.NumNodes(); i++ {
		if !nw.HasMeta[i] {
			continue
		}
		if nw.Meta[i].X > max {
			max = nw.Meta[i].X
		}
		if nw.Meta[i].Y > max {
			max = nw.Meta[i].Y
		}
	}
	return max + 1
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	model := fs.String("model", "irfusion", "model architecture")
	out := fs.String("out", "model.bin", "output checkpoint")
	nFake := fs.Int("fake", 8, "fake training designs")
	nReal := fs.Int("real", 4, "real training designs")
	size := fs.Int("size", 64, "die size / raster resolution")
	epochs := fs.Int("epochs", 10, "training epochs")
	seed := fs.Int64("seed", 1, "seed")
	of := addObsFlags(fs)
	fs.Parse(args)

	cfg := core.Default(*size)
	cfg.ModelName = *model
	cfg.Epochs = *epochs
	cfg.Seed = *seed
	if *model != "irfusion" {
		cfg.UseNumerical = false
		cfg.Hierarchical = false
	}
	finish := of.start("train", cfg)
	log.Printf("generating %d fake + %d real designs at %dx%d...", *nFake, *nReal, *size, *size)
	train, err := dataset.GenerateSet(*nFake, *nReal, *size, *seed, cfg.DatasetOptions())
	if err != nil {
		return err
	}
	log.Printf("training %s (%s)...", *model, cfg.Describe())
	res, err := core.Train(cfg, train)
	if err != nil {
		return err
	}
	log.Printf("trained: %d params, final loss %.4g, %.1fs",
		res.NumParams, res.FinalLoss, res.TrainTime.Seconds())

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Analyzer.Save(f); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return finish()
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	deck := fs.String("spice", "", "input SPICE file (required)")
	modelFile := fs.String("model-file", "", "trained checkpoint from 'irfusion train' (required)")
	pgm := fs.String("pgm", "", "write the predicted drop map as PGM")
	of := addObsFlags(fs)
	fs.Parse(args)
	if *deck == "" || *modelFile == "" {
		return fmt.Errorf("predict: -spice and -model-file are required")
	}
	finish := of.start("predict", map[string]any{
		"spice": *deck, "model_file": *modelFile,
	})

	mf, err := os.Open(*modelFile)
	if err != nil {
		return err
	}
	analyzer, err := core.LoadAnalyzer(mf)
	mf.Close()
	if err != nil {
		return err
	}

	f, err := os.Open(*deck)
	if err != nil {
		return err
	}
	nl, err := spice.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	size := analyzer.Config.Resolution
	d := &pgen.Design{Name: *deck, W: size, H: size, VDD: serve.PadVoltage(nl), Netlist: nl}
	pred, rt, err := analyzer.Analyze(d)
	if err != nil {
		return err
	}
	log.Printf("predicted worst-case IR drop: %.4g V (runtime %.3fs)", pred.Max(), rt.Seconds())
	fmt.Println(pred.ASCII(64))
	if *pgm != "" {
		if err := os.WriteFile(*pgm, []byte(pred.PGM()), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", *pgm)
	}
	return finish()
}

func cmdTransient(args []string) error {
	fs := flag.NewFlagSet("transient", flag.ExitOnError)
	deck := fs.String("spice", "", "input SPICE file with C cards (required)")
	step := fs.Float64("h", 1e-12, "time step in seconds")
	steps := fs.Int("steps", 100, "number of backward-Euler steps")
	burst := fs.Int("burst", 0, "apply the deck's loads only for the first N steps (0 = always on)")
	scale := fs.Float64("scale", 1, "load current scale factor")
	fs.Parse(args)
	if *deck == "" {
		return fmt.Errorf("transient: -spice is required")
	}

	f, err := os.Open(*deck)
	if err != nil {
		return err
	}
	nl, err := spice.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	nw, err := circuit.FromNetlist(nl)
	if err != nil {
		return err
	}
	sys, err := nw.Assemble()
	if err != nil {
		return err
	}
	if len(nw.Capacitors) == 0 {
		log.Printf("warning: deck has no C cards; the response is quasi-static")
	}
	tr, err := circuit.NewTransient(sys, *step)
	if err != nil {
		return err
	}
	loads := make([]float64, sys.N())
	for i, v := range sys.I {
		loads[i] = *scale * v
	}
	idle := make([]float64, sys.N())
	peak, err := tr.Run(*steps, func(k int, _ float64) []float64 {
		if *burst > 0 && k >= *burst {
			return idle
		}
		return loads
	})
	if err != nil {
		return err
	}
	final := 0.0
	for _, v := range tr.Drops() {
		if v > final {
			final = v
		}
	}
	log.Printf("transient: %d steps of %.3g s (%d caps)", *steps, *step, len(nw.Capacitors))
	log.Printf("peak dynamic IR drop: %.4g V; final worst drop: %.4g V", peak, final)
	return nil
}
