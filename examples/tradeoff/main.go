// Trade-off example: a miniature of the paper's Fig 7. For solver
// budgets k = 1..8, compare the pure numerical analyzer against the
// fused pipeline on one held-out design, printing the MAE/F1 curves.
//
//	go run ./examples/tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/metrics"
	"irfusion/internal/pgen"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	const size = 32

	cfg := core.Default(size)
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 6
	cfg.LearningRate = 5e-3
	cfg.OversampleFake, cfg.OversampleReal = 1, 2

	// Train on mixed solver budgets so one model serves the sweep.
	fmt.Println("training a budget-robust fusion model...")
	var train []*dataset.Sample
	for _, k := range []int{1, 2, 4, 8} {
		opts := cfg.DatasetOptions()
		opts.RoughIters = k
		s, err := dataset.GenerateSet(ctx, 4, 2, size, 21, opts)
		if err != nil {
			log.Fatal(err)
		}
		train = append(train, s...)
	}
	res, err := core.Train(ctx, cfg, train)
	if err != nil {
		log.Fatal(err)
	}

	design, err := pgen.Generate(pgen.DefaultConfig("sweep", pgen.Real, size, size, 99))
	if err != nil {
		log.Fatal(err)
	}
	goldenOpts := cfg.DatasetOptions()
	goldenSample, err := dataset.BuildCtx(ctx, design, goldenOpts)
	if err != nil {
		log.Fatal(err)
	}
	golden := goldenSample.Golden

	fmt.Printf("\n%5s %18s %12s %18s %12s\n", "iters", "numerical MAE", "num. F1", "fusion MAE", "fusion F1")
	for k := 1; k <= 8; k++ {
		na := &core.NumericalAnalyzer{Iters: k, Resolution: size}
		nm, _, _, err := na.AnalyzeCtx(ctx, design)
		if err != nil {
			log.Fatal(err)
		}
		opts := cfg.DatasetOptions()
		opts.RoughIters = k
		s, err := dataset.BuildCtx(ctx, design, opts)
		if err != nil {
			log.Fatal(err)
		}
		fp := res.Analyzer.PredictCtx(ctx, s)
		fmt.Printf("%5d %18.4g %12.2f %18.4g %12.2f\n",
			k, metrics.MAE(nm, golden), metrics.F1(nm, golden),
			metrics.MAE(fp, golden), metrics.F1(fp, golden))
	}
	fmt.Println("\nfewer solver iterations + ML refinement ≈ many solver iterations (the fusion trade-off)")
}
