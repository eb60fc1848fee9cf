// Property-based equivalence suite for the SELL-C-σ format: over
// randomized generated power-grid systems, the SELL kernels must match
// CSR bitwise (MulVec and MulVecAdd, every slice width, every worker
// count, ragged tails included). This is the harness that pins the
// "formats are a pure performance knob" contract the solvers rely on.
package sparse_test

import (
	"math"
	"math/rand"
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/parallel"
	"irfusion/internal/pgen"
	"irfusion/internal/sparse"
)

// propertyCase pins one randomized design of the sweep. Sizes are
// chosen so reduced dimensions are NOT multiples of the slice widths
// under test — the ragged final slice and ragged lanes are exactly
// where padding-handling bugs live.
type propertyCase struct {
	name  string
	class pgen.Class
	size  int
	seed  int64
}

var propertyCases = []propertyCase{
	{"real-24-s7", pgen.Real, 24, 7},
	{"real-31-s11", pgen.Real, 31, 11},
	{"fake-17-s3", pgen.Fake, 17, 3},
	{"fake-29-s5", pgen.Fake, 29, 5},
	{"real-40-s1", pgen.Real, 40, 1},
}

// propertySystem generates and assembles one case's conductance matrix.
func propertySystem(t *testing.T, pc propertyCase) *sparse.CSR {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig(pc.name, pc.class, pc.size, pc.size, pc.seed))
	if err != nil {
		t.Fatalf("pgen: %v", err)
	}
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatalf("circuit: %v", err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return sys.G
}

// randSigned fills a vector with signed random values (including a
// sprinkling of negative zeros, which a padding-reading kernel would
// corrupt to +0).
func randSigned(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		if rng.Intn(16) == 0 {
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

// TestSELLEquivalenceProperty is the float64 half of the suite: for
// every randomized design, slice width, and worker count, SELL MulVec
// and MulVecAdd must reproduce the CSR results bit for bit.
func TestSELLEquivalenceProperty(t *testing.T) {
	raggedSlices, raggedLanes := false, false
	for _, pc := range propertyCases {
		g := propertySystem(t, pc)
		n := g.Rows()
		rng := rand.New(rand.NewSource(pc.seed * 7919))
		x := randSigned(rng, n)
		y0 := randSigned(rng, n)

		want := make([]float64, n)
		g.MulVec(want, x)
		wantAdd := append([]float64(nil), y0...)
		g.MulVecAdd(wantAdd, x)

		for _, c := range []int{4, 8, 32} {
			s := sparse.NewSELLCS(g, c, 0)
			if n%c != 0 {
				raggedSlices = true
			}
			if s.PaddingRatio() > 1 {
				raggedLanes = true
			}
			for _, workers := range []int{1, 3, 8} {
				prev := parallel.SetDefault(parallel.New(workers).SetMinWork(1))
				got := make([]float64, n)
				s.MulVec(got, x)
				gotAdd := append([]float64(nil), y0...)
				s.MulVecAdd(gotAdd, x)
				parallel.SetDefault(prev)

				for i := 0; i < n; i++ {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s C=%d workers=%d: MulVec row %d = %x, CSR %x",
							pc.name, c, workers, i, got[i], want[i])
					}
					if math.Float64bits(gotAdd[i]) != math.Float64bits(wantAdd[i]) {
						t.Fatalf("%s C=%d workers=%d: MulVecAdd row %d = %x, CSR %x",
							pc.name, c, workers, i, gotAdd[i], wantAdd[i])
					}
				}
			}
		}
	}
	// The sweep is only a ragged-tail test if it actually produced
	// ragged geometry; a future case-list edit must not silently lose
	// that coverage.
	if !raggedSlices {
		t.Error("no case exercised a ragged final slice (rows % C != 0)")
	}
	if !raggedLanes {
		t.Error("no case exercised ragged lanes (padding ratio > 1)")
	}
}
