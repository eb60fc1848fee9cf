// Command experiments regenerates the evaluation artifacts of the
// IR-Fusion paper on the synthetic ICCAD-2023-like dataset:
//
//	-exp table1   main results (TABLE I): 6 baselines + IR-Fusion
//	-exp fig6     prediction heatmaps: golden vs MAUnet vs IR-Fusion
//	-exp fig7     trade-off sweep: solver iterations 1-10, fusion vs PowerRush
//	-exp fig8     ablation study: ΔMAE% / ΔF1% per removed technique
//	-exp all      everything above, reusing trained models
//
// Modes: -mode quick (CI-sized, ~1 min) or -mode full (the default
// experiment scale). CSVs, their markdown tables (table1.md,
// fig6_metrics.md, fig7.md, fig8.md) and PGM images land in -out.
//
// The run ends with the paper gate (gate.go): each experiment judges
// the paper's claims on its own numbers, the verdicts are logged and
// written as gate.csv and gate.md, and the command exits 1 when a
// gated claim fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"irfusion/internal/obs"
)

func main() {
	log.SetFlags(0)
	var (
		exp      = flag.String("exp", "all", "experiments: comma list of table1|fig6|fig7|fig8, or all")
		mode     = flag.String("mode", "quick", "scale: quick|full")
		out      = flag.String("out", "out", "output directory for CSV/PGM artifacts")
		seed     = flag.Int64("seed", 1, "master seed")
		fake     = flag.Int("fake", 0, "override: number of fake (training) designs")
		realN    = flag.Int("real", 0, "override: number of real designs (split train/test)")
		res      = flag.Int("res", 0, "override: raster resolution")
		epoch    = flag.Int("epochs", 0, "override: training epochs")
		manifest = flag.String("manifest", "", "write a JSON run manifest to this file")
		debug    = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()

	sc, err := scaleFor(*mode).override(*fake, *realN, *res, *epoch)
	if err != nil {
		log.Fatal(err)
	}
	sc.Seed = *seed

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	rec := obs.NewRecorder()
	if *debug != "" {
		if _, addr, err := obs.ServeDebug(*debug); err != nil {
			log.Printf("debug server: %v", err)
		} else {
			log.Printf("debug server at http://%s/debug/vars and /debug/pprof/", addr)
		}
	}

	env, err := prepare(obs.WithRecorder(context.Background(), rec), sc)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dataset ready: %d fake + %d real-train + %d real-test designs at %dx%d\n",
		sc.Fake, sc.RealTrain, sc.RealTest, sc.Res, sc.Res)

	run := func(name string, fn func(*env_, string) error) {
		log.Printf("=== %s ===", name)
		if err := fn(env, *out); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	selected := *exp
	if selected == "all" {
		selected = "table1,fig6,fig7,fig8"
	}
	for _, name := range strings.Split(selected, ",") {
		switch strings.TrimSpace(name) {
		case "table1":
			run("TABLE I", runTable1)
		case "fig6":
			run("Fig 6", runFig6)
		case "fig7":
			run("Fig 7", runFig7)
		case "fig8":
			run("Fig 8", runFig8)
		case "":
		default:
			log.Fatalf("unknown experiment %q", name)
		}
	}
	failed, err := judge(env.verdicts, *out)
	if err != nil {
		log.Fatal(err)
	}
	// One process, one run: the manifest carries the process counters.
	m := rec.Manifest("experiments", sc)
	for name, v := range obs.GlobalCounters() {
		if v != 0 {
			m.Counters[name] += v
		}
	}
	fmt.Fprint(os.Stderr, m.Summary())
	if *manifest != "" {
		if err := m.WriteFile(*manifest); err != nil {
			log.Fatalf("manifest: %v", err)
		}
		log.Printf("wrote %s", *manifest)
	}
	log.Printf("artifacts written to %s", mustAbs(*out))
	if failed > 0 {
		log.Fatalf("paper gate: %d gated claims failed", failed)
	}
}

func mustAbs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}

// scale bundles the experiment sizing knobs.
type scale struct {
	Res       int
	Fake      int
	RealTrain int
	RealTest  int
	Epochs    int
	Base      int
	Depth     int
	LR        float64
	Seed      int64
}

func scaleFor(mode string) scale {
	switch mode {
	case "full":
		// The paper trains on 100 fake + 10 real and tests on 10 real
		// at 256×256; this is the reduced-scale equivalent that runs
		// on a laptop CPU in tens of minutes. Scale further with the
		// -res/-fake/-real/-epochs overrides when more compute is
		// available.
		return scale{Res: 48, Fake: 12, RealTrain: 4, RealTest: 4, Epochs: 12, Base: 8, Depth: 2, LR: 2e-3}
	default:
		return scale{Res: 32, Fake: 6, RealTrain: 2, RealTest: 2, Epochs: 8, Base: 4, Depth: 2, LR: 5e-3}
	}
}

// override applies the command-line overrides, 0 keeping the mode's
// value. Real designs split into train and test halves, so -real needs
// at least 2; a negative count is an error too.
func (sc scale) override(fake, realN, res, epochs int) (scale, error) {
	if fake < 0 || realN < 0 || res < 0 || epochs < 0 {
		return sc, fmt.Errorf("overrides must be non-negative: -fake %d -real %d -res %d -epochs %d", fake, realN, res, epochs)
	}
	if realN == 1 {
		return sc, errors.New("-real 1: the real designs split into train and test, so it needs at least 2")
	}
	if fake > 0 {
		sc.Fake = fake
	}
	if realN > 0 {
		sc.RealTrain = realN / 2
		sc.RealTest = realN - realN/2
	}
	if res > 0 {
		sc.Res = res
	}
	if epochs > 0 {
		sc.Epochs = epochs
	}
	return sc, nil
}

// table is one experiment's rows, header first. write stores them as
// name.csv and, beside it, as the markdown table name.md.
type table [][]string

func (t *table) row(cols ...any) {
	r := make([]string, len(cols))
	for i, c := range cols {
		r[i] = fmt.Sprint(c)
	}
	*t = append(*t, r)
}

func (t table) write(dir, name string) error {
	var csv strings.Builder
	for _, r := range t {
		csv.WriteString(strings.Join(r, ",") + "\n")
	}
	if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(csv.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".md"), []byte(t.markdown()), 0o644)
}

// markdown renders the table for EXPERIMENTS.md: a column whose every
// data cell looks numeric is right-aligned.
func (t table) markdown() string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(t[0])
	b.WriteString("|")
	for c := range t[0] {
		numeric := len(t) > 1
		for _, r := range t[1:] {
			numeric = numeric && looksNumeric(r[c])
		}
		if numeric {
			b.WriteString("---:|")
		} else {
			b.WriteString("---|")
		}
	}
	b.WriteString("\n")
	for _, r := range t[1:] {
		line(r)
	}
	return b.String()
}

// looksNumeric reports whether a cell is a number (it right-aligns its
// column).
func looksNumeric(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
