// Quickstart: generate a synthetic power grid, run the golden
// numerical analysis, train a miniature IR-Fusion model, and compare
// the fused prediction against the golden IR-drop map.
//
//	go run ./examples/quickstart
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

	// 1. Generate a "real-like" power-grid design (SPICE netlist with
	//    straps, vias, current loads, and VDD pads).
	design, err := pgen.Generate(pgen.DefaultConfig("quickstart", pgen.Real, size, size, 42))
	if err != nil {
		log.Fatal(err)
	}
	nr, ni, nv := design.Netlist.Counts()
	fmt.Printf("generated %q: %d resistors, %d loads, %d pads\n", design.Name, nr, ni, nv)

	// 2. Golden numerical analysis (converged AMG-PCG).
	golden := &core.NumericalAnalyzer{Resolution: size}
	gMap, gTime, residual, err := golden.AnalyzeCtx(ctx, design)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden solve: residual %.2g in %v; worst-case drop %.4g V\n",
		residual, gTime.Round(0), gMap.Max())

	// 3. Train a miniature fusion model on a handful of generated
	//    designs (augmented curriculum learning under the hood).
	cfg := core.Default(size)
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 6
	cfg.LearningRate = 5e-3
	train, err := dataset.GenerateSet(ctx, 4, 2, size, 7, cfg.DatasetOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training IR-Fusion on %d designs...\n", len(train))
	res, err := core.Train(ctx, cfg, train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d parameters in %v (loss %.3g -> %.3g)\n",
		res.NumParams, res.TrainTime.Round(0), res.EpochLoss[0], res.FinalLoss)

	// 4. Fused analysis of the quickstart design.
	pred, fTime, err := res.Analyzer.AnalyzeCtx(ctx, design)
	if err != nil {
		log.Fatal(err)
	}
	rep := metrics.Evaluate(pred, gMap)
	fmt.Printf("fusion analysis in %v: %s\n", fTime.Round(0), rep)

	fmt.Println("\ngolden IR-drop map:")
	fmt.Print(gMap.ASCII(48))
	fmt.Println("\nfused prediction:")
	fmt.Print(pred.ASCII(48))
}
