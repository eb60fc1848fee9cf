package solver_test

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"irfusion/internal/amg"
	"irfusion/internal/circuit"
	"irfusion/internal/pgen"
	"irfusion/internal/solver"
	"irfusion/internal/sparse"
	"irfusion/internal/spice"
)

var update = flag.Bool("update", false, "rewrite the golden solution file from the Cholesky oracle")

// oracleCase pins the design the golden-oracle tests solve. Changing
// it invalidates testdata/golden_fake12_seed1.json (regenerate with
// go test ./internal/solver -run TestGoldenSolutionFile -update).
const (
	oracleSize = 12
	oracleSeed = 1
)

const goldenFile = "testdata/golden_fake12_seed1.json"

// oracleSystem assembles the pinned pgen design into its conductance
// system.
func oracleSystem(t *testing.T) *circuit.System {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("oracle", pgen.Fake, oracleSize, oracleSize, oracleSeed))
	if err != nil {
		t.Fatalf("pgen: %v", err)
	}
	return assemble(t, d)
}

func assemble(t *testing.T, d *pgen.Design) *circuit.System {
	t.Helper()
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatalf("circuit: %v", err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return sys
}

// choleskySolve factors G directly and solves for the exact node
// voltages — the oracle the iterative solvers are measured against.
func choleskySolve(t *testing.T, sys *circuit.System) []float64 {
	t.Helper()
	chol, err := sparse.NewCholesky(sys.G)
	if err != nil {
		t.Fatalf("cholesky: %v", err)
	}
	x := make([]float64, sys.G.Rows())
	chol.Solve(x, sys.I)
	return x
}

func relErr(x, oracle []float64) float64 {
	var dn, on float64
	for i := range x {
		d := x[i] - oracle[i]
		dn += d * d
		on += oracle[i] * oracle[i]
	}
	return math.Sqrt(dn) / math.Sqrt(on)
}

// TestPCGMatchesCholeskyOracle checks both production iterative
// configurations — SSOR-PCG and AMG-PCG — against a direct sparse
// Cholesky factorization of the same system: a fully converged
// iterative solve must agree with the exact solution to 1e-8 relative
// error.
func TestPCGMatchesCholeskyOracle(t *testing.T) {
	sys := oracleSystem(t)
	oracle := choleskySolve(t, sys)

	t.Run("ssor-pcg", func(t *testing.T) {
		x := make([]float64, sys.G.Rows())
		res, err := solver.PCG(sys.G, x, sys.I, solver.NewSSOR(sys.G, 2), solver.DefaultOptions())
		if err != nil {
			t.Fatalf("PCG: %v", err)
		}
		if !res.Converged {
			t.Fatalf("PCG did not converge: %d iterations, residual %g", res.Iterations, res.Residual)
		}
		if e := relErr(x, oracle); e > 1e-8 {
			t.Errorf("SSOR-PCG vs Cholesky relative error %g, want <= 1e-8", e)
		}
	})

	// The ill-conditioned rows: half of a real-class deck's resistors,
	// picked by a seeded coin, are `contrast` times the rest. AMG-PCG
	// must converge and land on the direct factorization's answer as
	// closely as float64 can certify it: the factorization's own true
	// residual on these decks is about eps × contrast (4e-9 and 4e-5),
	// so 1e-8 holds at 1e6 and only 1e-4 at 1e10.
	contrastSystem := func(t *testing.T, contrast float64) *circuit.System {
		d, err := pgen.Generate(pgen.DefaultConfig("illcond", pgen.Real, 24, 24, 3))
		if err != nil {
			t.Fatalf("pgen: %v", err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := range d.Netlist.Elements {
			if e := &d.Netlist.Elements[i]; e.Type == spice.Resistor && rng.Intn(2) == 0 {
				e.Value *= contrast
			}
		}
		return assemble(t, d)
	}
	for _, tc := range []struct {
		name string
		sys  func(t *testing.T) *circuit.System
		tol  float64
	}{
		{"amg-pcg", func(*testing.T) *circuit.System { return sys }, 1e-8},
		{"amg-pcg-contrast-1e6", func(t *testing.T) *circuit.System { return contrastSystem(t, 1e6) }, 1e-8},
		{"amg-pcg-contrast-1e10", func(t *testing.T) *circuit.System { return contrastSystem(t, 1e10) }, 1e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys(t)
			h, err := amg.Build(sys.G, amg.DefaultOptions())
			if err != nil {
				t.Fatalf("amg: %v", err)
			}
			x := make([]float64, sys.G.Rows())
			res, err := solver.PCG(sys.G, x, sys.I, h, solver.DefaultOptions())
			if err != nil {
				t.Fatalf("PCG: %v", err)
			}
			if !res.Converged {
				t.Fatalf("AMG-PCG did not converge: %d iterations, residual %g", res.Iterations, res.Residual)
			}
			if e := relErr(x, choleskySolve(t, sys)); e > tc.tol {
				t.Errorf("AMG-PCG vs Cholesky relative error %g, want <= %g", e, tc.tol)
			}
		})
	}
}

// goldenSolution is the committed per-node oracle solution.
type goldenSolution struct {
	Design string    `json:"design"`
	Size   int       `json:"size"`
	Seed   int64     `json:"seed"`
	Nodes  int       `json:"nodes"`
	X      []float64 `json:"x"`
}

// TestGoldenSolutionFile regression-tests the whole numerical front
// end — generator, assembly, node ordering, factorization — against a
// committed per-node solution. Any drift beyond 1e-10 per node means
// the numerics changed in a way the next PR author must sign off on
// by re-running with -update.
func TestGoldenSolutionFile(t *testing.T) {
	sys := oracleSystem(t)
	oracle := choleskySolve(t, sys)

	if *update {
		g := goldenSolution{
			Design: "fake",
			Size:   oracleSize,
			Seed:   oracleSeed,
			Nodes:  len(oracle),
			X:      oracle,
		}
		b, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d nodes)", goldenFile, len(oracle))
		return
	}

	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var g goldenSolution
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if g.Nodes != len(oracle) || len(g.X) != len(oracle) {
		t.Fatalf("golden has %d nodes (file says %d), oracle has %d", len(g.X), g.Nodes, len(oracle))
	}
	worst := 0.0
	for i := range oracle {
		if d := math.Abs(oracle[i] - g.X[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-10 {
		t.Errorf("oracle drifted from committed golden: max per-node diff %g, want <= 1e-10", worst)
	}
}
