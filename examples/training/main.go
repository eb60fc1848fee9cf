// Training example: the augmented-curriculum training loop of §III-E.
// Trains IR-Fusion and a baseline (PGAU) on the same generated data,
// showing the curriculum subsets growing, then evaluates both on
// held-out real-like designs and saves the fusion checkpoint.
//
//	go run ./examples/training
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

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
	cfg.Base, cfg.Depth, cfg.Epochs = 4, 2, 8
	cfg.LearningRate = 5e-3

	fmt.Println("building dataset (6 fake + 2 real train, 2 real test)...")
	all, err := dataset.GenerateSet(ctx, 6, 4, size, 11, cfg.DatasetOptions())
	if err != nil {
		log.Fatal(err)
	}
	train, test := all[:8], all[8:]

	// Show what the curriculum scheduler does: fake ("easy") designs
	// first, real ("hard") ones ramped in.
	aug := dataset.Oversample(dataset.Augment(train), 2, 5)
	cur := dataset.Curriculum{Ramp: 0.5}
	rng := rand.New(rand.NewSource(1))
	fmt.Println("\ncurriculum schedule (of", len(aug), "augmented+oversampled samples):")
	for _, epoch := range []int{0, 2, 4, 7} {
		subset := cur.Subset(aug, epoch, cfg.Epochs, rng)
		nReal := 0
		for _, s := range subset {
			if s.Class == pgen.Real {
				nReal++
			}
		}
		fmt.Printf("  epoch %d: %3d samples (%d hard/real)\n", epoch, len(subset), nReal)
	}

	fmt.Println("\ntraining IR-Fusion...")
	fusion, err := core.Train(ctx, cfg, train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  epoch losses: %.4g ... %.4g\n", fusion.EpochLoss[0], fusion.FinalLoss)

	cfgB := cfg
	cfgB.ModelName = "pgau"
	cfgB.UseNumerical = false
	cfgB.Hierarchical = false
	trainB, err := dataset.GenerateSet(ctx, 6, 2, size, 11, cfgB.DatasetOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training PGAU baseline (no numerical features)...")
	baseline, err := core.Train(ctx, cfgB, trainB)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate on the held-out real designs.
	fmt.Println("\nheld-out evaluation:")
	fRep := metrics.Average(fusion.Analyzer.Evaluate(ctx, test))
	fmt.Printf("  IR-Fusion: %s\n", fRep)
	// The baseline needs matching (basic) features for its inputs;
	// seed 13 regenerates the same two held-out designs (11+2).
	testB, err := dataset.GenerateSet(ctx, 0, 2, size, 13, cfgB.DatasetOptions())
	if err != nil {
		log.Fatal(err)
	}
	bRep := metrics.Average(baseline.Analyzer.Evaluate(ctx, testB))
	fmt.Printf("  PGAU:      %s\n", bRep)

	f, err := os.CreateTemp("", "irfusion-*.ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fusion.Analyzer.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsaved checkpoint to %s\n", f.Name())
}
