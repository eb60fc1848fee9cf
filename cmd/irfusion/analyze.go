package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"irfusion/internal/core"
	"irfusion/internal/grid"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

// cmdAnalyze is the one CLI path from a design to an IR-drop map,
// with full observability: every stage, solve, and kernel dispatch of
// the run is recorded and can be exported as a JSON manifest
// (-manifest) or inspected live (-debug-addr).
//
// With -spice the deck is admitted exactly as POST /v1/analyze admits
// it (serve.DeckDesign: linted, die size from the node names); without
// it a synthetic design is generated first, so `irfusion analyze
// -manifest out.json` works standalone. Without -model-file it runs
// the pure numerical analyzer (converged AMG-PCG by default, a
// budgeted rough solve with -iters); with -model-file it runs the
// fused numerical+ML pipeline. It returns the map it computed.
func cmdAnalyze(args []string) (*grid.Map, error) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	deck := fs.String("spice", "", "input SPICE file (default: generate a synthetic design)")
	class := fs.String("class", "real", "generated design class: fake|real")
	size := fs.Int("size", 64, "generated die size in um (square)")
	seed := fs.Int64("seed", 1, "generator seed")
	iters := fs.Int("iters", 0, "PCG iteration budget (0 = converge; with -model-file, 0 = the checkpoint's trained rough budget)")
	precond := fs.String("precond", "amg", "preconditioner for budgeted solves: amg|ssor")
	modelFile := fs.String("model-file", "", "trained checkpoint: run the fused numerical+ML pipeline")
	pgm := fs.String("pgm", "", "write the drop map as PGM")
	resFlag := fs.Int("res", 0, "raster resolution (default: die size or model resolution; also the die size of a deck whose node names carry no coordinates)")
	of := addObsFlags(fs)
	fs.Parse(args)
	for _, f := range []struct{ name, value, allowed string }{
		{"class", *class, "fake real"},
		{"precond", *precond, "amg ssor"},
	} {
		if !slices.Contains(strings.Fields(f.allowed), f.value) {
			return nil, fmt.Errorf("-%s %q: want one of: %s", f.name, f.value, f.allowed)
		}
	}
	// Resolve the design: admit a deck or generate one.
	var d *pgen.Design
	if *deck != "" {
		text, err := os.ReadFile(*deck)
		if err != nil {
			return nil, err
		}
		if d, err = serve.DeckDesign(*deck, string(text), *resFlag); err != nil {
			return nil, err
		}
	} else {
		c := pgen.Fake
		if *class == "real" {
			c = pgen.Real
		}
		var err error
		d, err = pgen.Generate(pgen.DefaultConfig("analyze", c, *size, *size, *seed))
		if err != nil {
			return nil, err
		}
		log.Printf("generated %s design %q (%dx%d, seed %d)", *class, d.Name, *size, *size, *seed)
	}

	res := *resFlag
	if res == 0 {
		res = d.W
	}

	ctx, finish := of.start("analyze", map[string]any{
		"spice":      *deck,
		"class":      *class,
		"size":       *size,
		"seed":       *seed,
		"iters":      *iters,
		"precond":    *precond,
		"model_file": *modelFile,
		"resolution": res,
	})

	var (
		m   *grid.Map
		rt  time.Duration
		err error
	)
	if *modelFile != "" {
		mf, err := os.Open(*modelFile)
		if err != nil {
			return nil, err
		}
		analyzer, err := core.LoadAnalyzer(mf)
		mf.Close()
		if err != nil {
			return nil, err
		}
		if *resFlag == 0 {
			res = analyzer.Config.Resolution
		}
		if *iters > 0 {
			analyzer.Config.RoughIters = *iters
		}
		if m, rt, err = analyzer.AnalyzeCtx(ctx, d); err != nil {
			return nil, err
		}
		log.Printf("fused pipeline: worst-case IR drop %.4g V (%.3fs)", m.Max(), rt.Seconds())
	} else {
		na := &core.NumericalAnalyzer{Iters: *iters, Resolution: res, Precond: *precond}
		var resid float64
		if m, rt, resid, err = na.AnalyzeCtx(ctx, d); err != nil {
			return nil, err
		}
		log.Printf("numerical: worst-case IR drop %.4g V, relative residual %.3g (%.3fs)",
			m.Max(), resid, rt.Seconds())
	}

	if *pgm != "" {
		if err := os.WriteFile(*pgm, []byte(m.PGM()), 0o644); err != nil {
			return nil, err
		}
		log.Printf("wrote %s (%dx%d)", *pgm, m.W, m.H)
	}

	return m, finish()
}
