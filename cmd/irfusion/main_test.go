package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/faults"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/serve"
	"irfusion/internal/spice"
)

// TestAnalyzeSpiceSizesTheDieFromTheDeck pins the 96-vs-64 bug:
// `analyze -spice` used to rasterise every deck at -size (default 64),
// clamping a 96 µm die's outer nodes into the last row and column. The
// map must be 96×96 and equal, to 1e-9, both a direct numerical
// analysis at resolution 96 and what a server returns for the deck.
func TestAnalyzeSpiceSizesTheDieFromTheDeck(t *testing.T) {
	const size = 96
	gen, err := pgen.Generate(pgen.DefaultConfig("cli", pgen.Real, size, size, 2))
	if err != nil {
		t.Fatal(err)
	}
	deck := gen.Netlist.String()
	path := filepath.Join(t.TempDir(), "d96.sp")
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := cmdAnalyze([]string{"-spice", path})
	if err != nil {
		t.Fatal(err)
	}
	if got.W != size || got.H != size {
		t.Fatalf("analyze -spice rasterised a %d µm deck to %dx%d", size, got.W, got.H)
	}

	nl, err := spice.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, _, err := (&core.NumericalAnalyzer{Resolution: size}).AnalyzeCtx(context.Background(),
		&pgen.Design{Name: "direct", W: size, H: size, VDD: serve.PadVoltage(nl), Netlist: nl})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got.Max() - direct.Max()); d > 1e-9 {
		t.Errorf("max drop differs from the direct analysis by %g", d)
	}
	if d := math.Abs(got.Mean() - direct.Mean()); d > 1e-9 {
		t.Errorf("mean drop differs from the direct analysis by %g", d)
	}

	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})
	body, err := json.Marshal(serve.AnalyzeRequest{Spice: deck, IncludeMap: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != serve.StatusDone || len(v.Result.Map) != size*size {
		t.Fatalf("served job: status %q (error %q), %d map cells", v.Status, v.Error, len(v.Result.Map))
	}
	for i, want := range v.Result.Map {
		if d := math.Abs(got.Data[i] - want); d > 1e-9 {
			t.Fatalf("cell %d differs from the served map by %g", i, d)
		}
	}
}

// TestAnalyzeRefusesMistypedValues: an enumerated flag set to anything
// outside its set is an error naming the flag, before any work — not a
// silent fall-through to the other value (`-class Real` used to
// generate a fake design, `-precond AMG` to run SSOR).
func TestAnalyzeRefusesMistypedValues(t *testing.T) {
	for _, args := range [][]string{
		{"-class", "Real"},
		{"-iters", "5", "-precond", "AMG"},
	} {
		flagName := args[len(args)-2]
		if _, err := cmdAnalyze(args); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("analyze %v: error %v, want one naming %s", args, err, flagName)
		}
	}
}

// TestAnalyzeRetiredFlags: -format went with the second sparse format,
// -precision with the float32 stack, -faults with the fault spec
// grammar, and -cache, -repeat and -perturb with the one-shot process
// cache; none is tolerated, not even under a value that used to mean
// "default". The flag set exits the process,
// so the test re-runs its own binary with the arguments in the
// environment.
func TestAnalyzeRetiredFlags(t *testing.T) {
	const env = "IRFUSION_TEST_ANALYZE_ARGS"
	if args := os.Getenv(env); args != "" {
		cmdAnalyze(strings.Fields(args))
		os.Exit(0) // the flag was accepted: the parent fails on the exit code
	}
	for _, args := range []string{"-format sell", "-format auto", "-precision full", "-faults amg.setup:fail",
		"-cache", "-repeat 2", "-perturb 0.01"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestAnalyzeRetiredFlags$")
		cmd.Env = append(os.Environ(), env+"="+args)
		out, err := cmd.CombinedOutput()
		want := "flag provided but not defined: " + strings.Fields(args)[0]
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), want) {
			t.Errorf("analyze %s: %v, want exit status 2 and %q; output:\n%s", args, err, want, out)
		}
	}
}

// TestAnalyzeFusedRoughBudget pins the CLI-vs-server bug: `analyze
// -model-file` without -iters used to run the rough stage at one
// iteration where the checkpoint was trained at Config.RoughIters,
// while the server keeps the trained budget unless the request
// overrides it. Without -iters the map must equal, bit for bit, what
// the loaded analyzer returns on its own config; -iters 3 must still
// override.
func TestAnalyzeFusedRoughBudget(t *testing.T) {
	const size = 24
	cfg := core.Default(size)
	cfg.Base, cfg.Depth, cfg.Epochs, cfg.UseAugmentation = 4, 2, 1, false
	set, err := dataset.GenerateSet(context.Background(), 1, 1, size, 70, cfg.DatasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	trained, err := core.Train(context.Background(), cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := trained.Analyzer.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.bin")
	if err := os.WriteFile(path, ckpt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := pgen.Generate(pgen.DefaultConfig("analyze", pgen.Real, size, size, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		iters int
	}{
		{"trained budget", nil, cfg.RoughIters},
		{"-iters overrides", []string{"-iters", "3"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loaded, err := core.LoadAnalyzer(bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Config.RoughIters != cfg.RoughIters {
				t.Fatalf("checkpoint carries rough budget %d, trained at %d", loaded.Config.RoughIters, cfg.RoughIters)
			}
			loaded.Config.RoughIters = tc.iters
			want, _, err := loaded.AnalyzeCtx(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			manifest := filepath.Join(t.TempDir(), "run.json")
			got, err := cmdAnalyze(append([]string{"-model-file", path, "-size", "24", "-seed", "5", "-manifest", manifest}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			// The manifest says which GEMM leaf its inference time was taken on.
			var m struct{ Config map[string]any }
			if raw, err := os.ReadFile(manifest); err != nil || json.Unmarshal(raw, &m) != nil || m.Config["gemm_kernel"] != nn.Kernel() {
				t.Errorf("manifest config gemm_kernel = %v (read error %v), the process multiplies with %q", m.Config["gemm_kernel"], err, nn.Kernel())
			}
			if len(got.Data) != len(want.Data) {
				t.Fatalf("map has %d cells, want %d", len(got.Data), len(want.Data))
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("cell %d: CLI %x, analyzer at %d rough iterations %x", i, got.Data[i], tc.iters, want.Data[i])
				}
			}
		})
	}
}

// TestRehearseAll keeps the analysis rows of the scenario table the
// retired `irfusion rehearse` subcommand ran, under their row names,
// now driven through `analyze -manifest` at 32 µm. Each row arms its
// faults on the process slot the CLI's context falls back to; a row
// that succeeds must return the undisturbed map and write a valid
// manifest meeting the row's check, a row that must fail must fail
// with its error. The serving row (restart) is a served-job scenario
// and lives in internal/serve.
func TestRehearseAll(t *testing.T) {
	args := []string{"-size", "32", "-seed", "3"}
	cold, err := cmdAnalyze(args)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		rules   []faults.Rule
		wantErr error
		check   func(m *obs.Manifest) string // what the manifest lacks, or ""
	}{
		{name: "cold", check: func(m *obs.Manifest) string {
			// The process's global counters are joined at finish.
			if m.Counters["circuit.networks"] <= 0 {
				return "the process counter circuit.networks"
			}
			for _, s := range m.Solves {
				if s.Iterations > 0 && len(s.History) > 0 {
					return ""
				}
			}
			return "a solve with iterations > 0 and a residual history"
		}},
		// Every AMG-rung solve breaks down and nothing stands behind the
		// one cold rung: the analysis fails with the ladder exhausted.
		{name: "exhausted", rules: []faults.Rule{{Site: faults.SitePCG, Action: faults.ActBreakdown, Label: plan.RungAMG}},
			wantErr: plan.ErrLadderExhausted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults.SetActive(faults.New(tc.rules...))
			t.Cleanup(func() { faults.SetActive(nil) })
			path := filepath.Join(t.TempDir(), "run.json")
			got, err := cmdAnalyze(append([]string{"-manifest", path}, args...))
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || !strings.Contains(err.Error(), "injected") {
					t.Fatalf("analyze: %v, want the injected failure wrapped in %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := range cold.Data {
				if d := math.Abs(got.Data[i] - cold.Data[i]); d > 1e-8 {
					t.Fatalf("cell %d differs from the undisturbed map by %g", i, d)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := obs.DecodeManifest(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("manifest invalid: %v", err)
			}
			if lack := tc.check(m); lack != "" {
				t.Errorf("manifest lacks %s: cache %+v, %d solves", lack, m.Cache, len(m.Solves))
			}
		})
	}
}

// TestTransientDecapLowersPeak runs `irfusion transient` on a generated
// 32 µm deck, once as generated and once with a decap card at every
// load, under a pulsed load (3× nominal current for the first 20 of
// 100 steps). Both runs succeed, and the logged peak drop is lower
// with the decaps. A missing -spice is an error.
func TestTransientDecapLowersPeak(t *testing.T) {
	gen, err := pgen.Generate(pgen.DefaultConfig("transient", pgen.Fake, 32, 32, 3))
	if err != nil {
		t.Fatal(err)
	}
	decap := &spice.Netlist{Title: gen.Netlist.Title, Elements: slices.Clone(gen.Netlist.Elements)}
	for i, e := range gen.Netlist.Elements {
		if e.Type == spice.CurrentSource {
			decap.Elements = append(decap.Elements, spice.Element{Type: spice.Capacitor, Name: fmt.Sprintf("Cd%d", i),
				NodeA: e.NodeA, NodeB: spice.Ground, Value: 5e-12})
		}
	}
	peak := func(nl *spice.Netlist) float64 {
		path := filepath.Join(t.TempDir(), "deck.sp")
		if err := os.WriteFile(path, []byte(nl.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		var logged bytes.Buffer
		log.SetOutput(&logged)
		err := cmdTransient([]string{"-spice", path, "-scale", "3", "-burst", "20"})
		log.SetOutput(os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`peak dynamic IR drop: (\S+) V`).FindStringSubmatch(logged.String())
		if m == nil {
			t.Fatalf("no peak in the log:\n%s", logged.String())
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	bare, withDecap := peak(gen.Netlist), peak(decap)
	if !(withDecap < bare) {
		t.Errorf("peak drop %g V with a decap per load, %g V without: the decaps should lower it", withDecap, bare)
	}
	if err := cmdTransient(nil); err == nil || !strings.Contains(err.Error(), "-spice") {
		t.Errorf("transient without -spice: error %v, want one naming -spice", err)
	}
}
