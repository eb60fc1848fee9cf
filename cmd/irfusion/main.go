// Command irfusion is the command-line front end of the IR-Fusion
// library:
//
//	irfusion gen      -out design.sp [-class real] [-size 64] [-seed 1]
//	irfusion analyze  [-spice design.sp] [-iters 0] [-model-file model.bin] [-pgm drop.pgm] [-manifest run.json]
//	irfusion transient -spice design.sp [-h 1e-12] [-steps 100] [-burst 20]
//	irfusion serve    [-addr localhost:8080] [-workers 2] [-model-file model.bin]
//	irfusion gateway  -shards a=http://h1:8080,b=http://h2:8080 [-addr localhost:8090]
//	irfusion train    -model irfusion [-fake 8 -real 4 -epochs 10] -out model.bin
//	irfusion models
//
// "analyze" is the one path from a design to a map: SPICE → MNA →
// AMG-PCG, converged or budgeted with -iters, and the fused
// numerical+ML pipeline with -model-file; "transient" integrates
// dynamic IR drop over C cards.
//
// analyze, train, serve, and gateway accept -manifest FILE to write a
// structured run manifest (stage timings, convergence traces, pool
// utilization) and -debug-addr ADDR to serve live expvar counters and
// pprof profiles during the run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"irfusion/internal/circuit"
	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/nn"
	"irfusion/internal/pgen"
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
	case "analyze":
		_, err = cmdAnalyze(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
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
  analyze  IR-drop analysis of a deck or a generated design: numerical (AMG-PCG),
           or fused numerical+ML with -model-file; -manifest writes a JSON run manifest
  transient dynamic IR-drop analysis (backward Euler over C cards)
  serve    long-lived HTTP analysis service (POST /v1/analyze; see docs/SERVING.md)
  gateway  cluster gateway routing a shard fleet by cache affinity (see docs/CLUSTER.md)
  train    train a fusion model on generated designs
  models   list registered model architectures

analyze, train, serve, and gateway also take -manifest FILE and -debug-addr ADDR.`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "design.sp", "output SPICE file")
	class := fs.String("class", "fake", "design class: fake|real")
	size := fs.Int("size", 64, "die size in um (square)")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)

	c := pgen.Fake
	if *class == "real" {
		c = pgen.Real
	}
	cfg := pgen.DefaultConfig("cli", c, *size, *size, *seed)
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
	ctx, finish := of.start("train", struct {
		core.Config
		GemmKernel string `json:"gemm_kernel"`
	}{cfg, nn.Kernel()})
	log.Printf("generating %d fake + %d real designs at %dx%d...", *nFake, *nReal, *size, *size)
	train, err := dataset.GenerateSet(ctx, *nFake, *nReal, *size, *seed, cfg.DatasetOptions())
	if err != nil {
		return err
	}
	log.Printf("training %s (%s)...", *model, cfg.Describe())
	res, err := core.Train(ctx, cfg, train)
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
