package irfusion_test

import (
	"context"
	"fmt"
	"log"

	"irfusion"
)

// The whole pipeline through the facade: generate a power grid, solve
// it to convergence for the golden IR-drop map, train a miniature
// IR-Fusion model on generated designs, and compare the fused
// prediction (rough solve + features + network) against the golden
// map. Every line it prints is a count or a verdict, so it reads the
// same on every platform:
//
//	go test -run '^Example$' -v .
func Example() {
	ctx := context.Background()
	const size = 32

	// A "real-like" design: irregular straps, blockages, hotspots.
	design, err := irfusion.GenerateDesign(irfusion.DesignConfig("quickstart", irfusion.Real, size, size, 123))
	if err != nil {
		log.Fatal(err)
	}
	nr, ni, nv := design.Netlist.Counts()
	fmt.Printf("%d resistors, %d loads, %d pads\n", nr, ni, nv)

	// Golden numerical analysis: AMG-PCG run to convergence.
	golden, _, residual, err := (&irfusion.NumericalAnalyzer{Resolution: size}).AnalyzeCtx(ctx, design)
	if err != nil {
		log.Fatal(err)
	}

	// A miniature model trained on 4 fake and 2 real designs with
	// augmented curriculum learning.
	cfg := irfusion.DefaultConfig(size)
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 8
	cfg.LearningRate = 5e-3
	train, err := irfusion.GenerateTrainingSet(4, 2, size, 5, cfg.DatasetOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := irfusion.Train(cfg, train)
	if err != nil {
		log.Fatal(err)
	}

	// Fused analysis of the design, scored against the golden map.
	pred, runtime, err := res.Analyzer.AnalyzeCtx(ctx, design)
	if err != nil {
		log.Fatal(err)
	}
	rep := irfusion.Evaluate(pred, golden)

	fmt.Println("trained a model:", res.Analyzer != nil && res.NumParams > 0)
	fmt.Println("fused map is 32×32 and timed:", pred.H == size && pred.W == size && runtime > 0)
	fmt.Println("golden residual ≤ 1e-9:", residual <= 1e-9)
	fmt.Println("0 < fused MAE < 0.2 × golden max:", rep.MAE > 0 && rep.MAE < 0.2*golden.Max())
	fmt.Println("fused CC ≥ 0.3:", rep.CC >= 0.3)
	// Output:
	// 336 resistors, 150 loads, 4 pads
	// trained a model: true
	// fused map is 32×32 and timed: true
	// golden residual ≤ 1e-9: true
	// 0 < fused MAE < 0.2 × golden max: true
	// fused CC ≥ 0.3: true
}
