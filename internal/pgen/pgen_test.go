package pgen

import (
	"encoding/json"
	"math"
	"testing"

	"irfusion/internal/amg"
	"irfusion/internal/circuit"
	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

// cgOpts is plain (unpreconditioned, non-flexible) CG at the
// converged-solve tolerance: the reference solve of these tests.
var cgOpts = solver.Options{Tol: 1e-10, MaxIter: 1000, Record: true}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig("d0", Fake, 48, 48, 7)
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Netlist.String() != d2.Netlist.String() {
		t.Error("same config must generate identical netlists")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate(DefaultConfig("a", Fake, 48, 48, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig("b", Fake, 48, 48, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Netlist.String() == b.Netlist.String() {
		t.Error("different seeds should differ (current blobs move)")
	}
}

func TestGeneratedDesignSolves(t *testing.T) {
	for _, class := range []Class{Fake, Real} {
		for seed := int64(0); seed < 3; seed++ {
			d, err := Generate(DefaultConfig("t", class, 48, 48, seed))
			if err != nil {
				t.Fatalf("%v seed %d: %v", class, seed, err)
			}
			nw, err := circuit.FromNetlist(d.Netlist)
			if err != nil {
				t.Fatalf("%v seed %d: %v", class, seed, err)
			}
			sys, err := nw.Assemble()
			if err != nil {
				t.Fatalf("%v seed %d: assemble: %v", class, seed, err)
			}
			if sys.N() < 100 {
				t.Fatalf("%v seed %d: suspiciously small system (%d unknowns)", class, seed, sys.N())
			}
			h, err := amg.Build(sys.G, amg.DefaultOptions())
			if err != nil {
				t.Fatalf("%v seed %d: amg: %v", class, seed, err)
			}
			x := make([]float64, sys.N())
			res, err := solver.PCG(sys.G, x, sys.I, h, solver.DefaultOptions())
			if err != nil {
				t.Fatalf("%v seed %d: pcg: %v", class, seed, err)
			}
			if !res.Converged {
				t.Fatalf("%v seed %d: did not converge (rel %v)", class, seed, res.Residual)
			}
			// Physical sanity: drops non-negative and below VDD.
			maxDrop := 0.0
			for _, v := range x {
				if v < -1e-9 {
					t.Fatalf("%v seed %d: negative drop %v", class, seed, v)
				}
				if v > maxDrop {
					maxDrop = v
				}
			}
			if maxDrop <= 0 || maxDrop >= d.VDD {
				t.Fatalf("%v seed %d: implausible max drop %v", class, seed, maxDrop)
			}
		}
	}
}

func TestGeneratedNetlistStructure(t *testing.T) {
	d, err := Generate(DefaultConfig("s", Fake, 64, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	nr, ni, nv := d.Netlist.Counts()
	if nr == 0 || ni == 0 || nv == 0 {
		t.Fatalf("missing element kinds: R=%d I=%d V=%d", nr, ni, nv)
	}
	if nv != 4 {
		t.Errorf("expected 4 pads, got %d", nv)
	}
	// All node names parse and stay inside the die.
	for _, e := range d.Netlist.Elements {
		for _, name := range []string{e.NodeA, e.NodeB} {
			if name == spice.Ground {
				continue
			}
			n, err := spice.ParseNode(name)
			if err != nil {
				t.Fatalf("unparseable node %q: %v", name, err)
			}
			if n.X < 0 || n.X >= 64 || n.Y < 0 || n.Y >= 64 {
				t.Fatalf("node %q outside die", name)
			}
		}
	}
}

func TestMultiLayerStack(t *testing.T) {
	d, err := Generate(DefaultConfig("m", Fake, 64, 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	layers := nw.Layers()
	if len(layers) != 5 {
		t.Fatalf("Layers = %v, want the 5-layer default stack", layers)
	}
	// Vias present.
	vias := 0
	for _, r := range nw.Resistors {
		if r.IsVia {
			vias++
		}
	}
	if vias == 0 {
		t.Error("no vias generated")
	}
}

func TestRealDesignsHaveIrregularities(t *testing.T) {
	fake, err := Generate(DefaultConfig("f", Fake, 64, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	real_, err := Generate(DefaultConfig("r", Real, 64, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	fr, _, _ := fake.Netlist.Counts()
	rr, _, _ := real_.Netlist.Counts()
	if rr >= fr {
		t.Errorf("real design (%d R) should be sparser than fake (%d R) due to blockages/thinning", rr, fr)
	}
	if len(real_.CurrentBlobs) <= len(fake.CurrentBlobs) {
		t.Errorf("real designs should have more hotspots (%d vs %d)",
			len(real_.CurrentBlobs), len(fake.CurrentBlobs))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(DefaultConfig("tiny", Fake, 4, 4, 0)); err == nil {
		t.Error("expected error for tiny die")
	}
	cfg := DefaultConfig("x", Fake, 32, 32, 0)
	cfg.Layers = []LayerSpec{{Layer: 1, Dir: horizontal, Pitch: 2, RPerUm: 1, ViaOhms: 1}}
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for single-layer stack")
	}
	cfg = DefaultConfig("y", Fake, 32, 32, 0)
	cfg.NumPads = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for zero pads")
	}
	cfg = DefaultConfig("z", Fake, 32, 32, 0)
	cfg.Layers[1].Dir = horizontal // same as layer below
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for parallel adjacent layers")
	}
}

func TestClassString(t *testing.T) {
	if Fake.String() != "fake" || Real.String() != "real" {
		t.Error("Class strings wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, err := Generate(DefaultConfig("rt", Real, 48, 48, 6))
	if err != nil {
		t.Fatal(err)
	}
	back, err := spice.ParseString(d.Netlist.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Elements) != len(d.Netlist.Elements) {
		t.Errorf("round trip: %d vs %d elements", len(back.Elements), len(d.Netlist.Elements))
	}
	// The re-parsed deck must still assemble.
	nw, err := circuit.FromNetlist(back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Assemble(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig("json", Real, 48, 48, 11)
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(back)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Netlist.String() != d2.Netlist.String() {
		t.Error("JSON round-tripped config generates a different design")
	}
}

func TestConfigJSONErrors(t *testing.T) {
	for body, want := range map[string]string{
		`{"class":"weird"}`:               "unknown-class error",
		`{"layers":[{"dir":"diagonal"}]}`: "unknown-direction error",
		`not json`:                        "parse error",
	} {
		var c Config
		if err := json.Unmarshal([]byte(body), &c); err == nil {
			t.Errorf("%s: expected %s", body, want)
		}
	}
}

// totalLoad is a system's summed current draw.
func totalLoad(s *circuit.System) float64 {
	t := 0.0
	for _, v := range s.I {
		t += v
	}
	return t
}

func TestDualRail(t *testing.T) {
	d, err := Generate(DefaultConfig("dr", Fake, 48, 48, 13))
	if err != nil {
		t.Fatal(err)
	}
	dual := d.DualRail()
	if len(dual.Elements) != 2*len(d.Netlist.Elements) {
		t.Fatalf("dual deck has %d elements, want %d", len(dual.Elements), 2*len(d.Netlist.Elements))
	}
	systems, skipped, err := circuit.AnalyzeNets(dual)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(systems) != 2 {
		t.Fatalf("systems=%d skipped=%v", len(systems), skipped)
	}
	// Identical geometry -> identical system sizes and total load.
	if systems[1].N() != systems[2].N() {
		t.Errorf("net sizes differ: %d vs %d", systems[1].N(), systems[2].N())
	}
	if l1, l2 := totalLoad(systems[1]), totalLoad(systems[2]); l1 != l2 {
		t.Errorf("loads differ: %v vs %v", l1, l2)
	}
	// VSS pads at 0 V.
	if systems[2].VDD != 0 {
		t.Errorf("VSS pad voltage %v, want 0", systems[2].VDD)
	}
	// Ground bounce equals IR drop for the mirrored geometry.
	solve := func(sys *circuit.System) float64 {
		x := make([]float64, sys.N())
		if _, err := solver.PCG(sys.G, x, sys.I, nil, cgOpts); err != nil {
			t.Fatal(err)
		}
		mx := 0.0
		for _, v := range x {
			if v > mx {
				mx = v
			}
		}
		return mx
	}
	if a, b := solve(systems[1]), solve(systems[2]); math.Abs(a-b) > 1e-9*a {
		t.Errorf("mirror symmetry broken: %v vs %v", a, b)
	}
}
