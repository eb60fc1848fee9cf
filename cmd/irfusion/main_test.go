package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"irfusion/internal/core"
	"irfusion/internal/dataset"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
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
	t.Cleanup(func() { closeServer(s, ts) })
	body, err := json.Marshal(serve.AnalyzeRequest{Spice: deck, IncludeMap: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := postJob(ts, string(body))
	if err != nil {
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

// TestAnalyzeRetiredFlags: -format went with the second sparse format
// and -precision with the float32 stack; neither is tolerated under a
// value that used to mean "default". The flag set exits the process,
// so the test re-runs its own binary with the arguments in the
// environment.
func TestAnalyzeRetiredFlags(t *testing.T) {
	const env = "IRFUSION_TEST_ANALYZE_ARGS"
	if args := os.Getenv(env); args != "" {
		cmdAnalyze(strings.Fields(args))
		os.Exit(0) // the flag was accepted: the parent fails on the exit code
	}
	for _, args := range []string{"-format sell", "-format auto", "-precision full"} {
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

// TestAnalyzeCacheManifest pins what `analyze -cache -manifest` writes
// now that the cache and the recorder reach the pipeline through the
// context: a valid manifest whose cache section shows the repeat hit,
// and the process's global counters joined at finish.
func TestAnalyzeCacheManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if _, err := cmdAnalyze([]string{"-size", "24", "-seed", "3", "-cache", "-repeat", "2", "-manifest", path}); err != nil {
		t.Fatal(err)
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
	if m.Cache == nil || m.Cache.Stores == 0 || m.Cache.Hits == 0 {
		t.Errorf("cache section %+v, want the first run's store and the repeat's hit", m.Cache)
	}
	if m.Counters["circuit.networks"] <= 0 {
		t.Errorf("process counter circuit.networks missing: %v", m.Counters)
	}
}

// TestRehearseAll runs every row of the table, at 32 µm. The requeue
// row is the only coverage of the mid-solve-panic → requeue → resume
// path.
func TestRehearseAll(t *testing.T) {
	for _, r := range rehearsals {
		t.Run(r.name, func(t *testing.T) {
			m, err := r.steps(32, r.faults)
			if err == nil {
				err = r.check(m)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRehearseBites: a gate that cannot fail is not a gate. Each row,
// run without the fault profile or the step that distinguishes it,
// must fail exactly its distinguishing expectation. The restart row is
// exempt — without the parking fault it has no deterministic crash
// point — and serve.TestServeRestartSkipsFinishedJobs is its negative.
func TestRehearseBites(t *testing.T) {
	noFaults := func(r *row) { r.faults = "" }
	for _, tc := range []struct {
		name  string
		blunt func(*row)
		lacks expectation
	}{
		{"exhausted", noFaults, exhausted},
		{"cache-chaos", noFaults, staleCaught},
		{"requeue", noFaults, resumedFrom("requeue")},
		{"cache-hit", func(r *row) { r.steps = analysis{cached: true}.run }, cacheHit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, ok := rowNamed(tc.name)
			if !ok {
				t.Fatal("no such row")
			}
			tc.blunt(&r)
			m, err := r.steps(32, r.faults)
			if err != nil {
				t.Fatalf("blunted steps did not run to their end: %v", err)
			}
			requireLacks(t, r.check(m), tc.lacks)
		})
	}
	t.Run("cold", func(t *testing.T) {
		r, _ := rowNamed("cold")
		m, err := r.steps(32, r.faults)
		if err != nil {
			t.Fatal(err)
		}
		m.Solves = nil
		requireLacks(t, r.check(m), solved)
	})
}

func requireLacks(t *testing.T, err error, e expectation) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), e.what) {
		t.Fatalf("check returned %v, want it to miss %q", err, e.what)
	}
}

// TestRehearseSelectsRows: arguments pick rows, an unknown one is a
// usage error.
func TestRehearseSelectsRows(t *testing.T) {
	if code := cmdRehearse([]string{"cold", "no-such-row"}); code != 2 {
		t.Errorf("unknown row: exit %d, want 2", code)
	}
	if code := cmdRehearse([]string{"cold"}); code != 0 {
		t.Errorf("rehearse cold: exit %d, want 0", code)
	}
}
