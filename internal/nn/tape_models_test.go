package nn_test

// The inference tape under whole models. This file is an external test
// package because internal/models imports nn; the tape's block is
// reached through export_test.go.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"irfusion/internal/models"
	"irfusion/internal/nn"
	"irfusion/internal/race"
)

// servedCfg is the served model size (core.Default) over the default
// feature stack's 14 channels.
func servedCfg() models.Config { return models.Config{InChannels: 14, Base: 8, Depth: 3, Seed: 1} }

func randInput(rng *rand.Rand, n, c, h, w int) *nn.Tensor {
	x := nn.NewTensor(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// evalModel builds a registered model whose batch-norm statistics one
// training pass has moved off their initial values, in eval mode.
func evalModel(t *testing.T, name string, rng *rand.Rand) models.Model {
	t.Helper()
	m, err := models.New(name, servedCfg())
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(true)
	m.Forward(nil, randInput(rng, 2, 14, 32, 32))
	m.SetTraining(false)
	return m
}

func firstDifference(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestEvalTapeMatchesHeapForwardWhenPoisoned: for every registered
// model, three passes on one inference tape whose block and column
// panel are filled with NaN between passes give the nil-tape forward's
// bits. The first pass runs on heap overflow (zeroed), the later ones
// on the poisoned block: an op that does not write every element of its
// output, or reads scratch it did not write, turns the answer to NaN.
func TestEvalTapeMatchesHeapForwardWhenPoisoned(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, name := range models.Names() {
		m := evalModel(t, name, rng)
		x := randInput(rng, 1, 14, 64, 64)
		want := m.Forward(nil, x).Data
		tp := nn.NewEvalTape()
		for pass := 0; pass < 3; pass++ {
			got := m.Forward(tp, x).Data
			if i := firstDifference(got, want); i >= 0 {
				t.Errorf("%s pass %d: element %d is %v on the inference tape, %v on the heap", name, pass, i, got[i], want[i])
			}
			tp.Reset()
			tp.Poison()
		}
	}
}

// TestEvalTapeBlockIsStable: the first pass sizes the block, after
// which it never grows again, a pass allocates tensor headers only —
// far less than its smallest activation plane — and the block holds
// what a heap pass would have allocated.
func TestEvalTapeBlockIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := evalModel(t, "irfusion", rng)
	x := randInput(rng, 1, 14, 64, 64)
	tp := nn.NewEvalTape()
	pass := func() {
		m.Forward(tp, x)
		tp.Reset()
	}
	pass()
	size := tp.BlockLen()
	if size == 0 {
		t.Fatal("Reset after the first pass left the tape without a block")
	}
	pass()
	if tp.BlockLen() != size {
		t.Errorf("block grew on the second pass: %d -> %d floats", size, tp.BlockLen())
	}
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, pass)
	t.Logf("irfusion 64x64 on a warm inference tape: %.0f B in %.0f allocations per pass; block %d floats (%.1f MB)",
		bytes, allocs, size, float64(size)*8/1e6)
	if bytes >= 64<<10 {
		t.Errorf("a warm pass allocates %.0f B, want < 64 kB (headers only: the smallest activation plane alone is 8×8×64 floats = 32 kB)", bytes)
	}
	if tp.BlockLen() != size {
		t.Errorf("block grew in steady state: %d -> %d floats", size, tp.BlockLen())
	}
}

// TestReLUPropagatesNaN: max(v, 0), not "v if v > 0": a NaN activation
// must reach the output of the op, of the fused batch-norm epilogue, and
// of a whole forward pass with one poisoned weight, instead of being
// rectified to a plausible zero.
func TestReLUPropagatesNaN(t *testing.T) {
	x := nn.NewTensor(1, 1, 1, 4)
	copy(x.Data, []float64{math.NaN(), -1, math.Copysign(0, -1), 2})
	check := func(what string, got []float64) {
		t.Helper()
		if !math.IsNaN(got[0]) || got[1] != 0 || math.Signbit(got[2]) || got[2] != 0 || got[3] != 2 {
			t.Errorf("%s of [NaN -1 -0 2] = %v, want [NaN 0 +0 2]", what, got)
		}
	}
	check("ReLU", nn.ReLU(nil, x).Data)
	bn := nn.NewBatchNorm2d(1)
	bn.RunVar[0], bn.Eps = 1, 0 // the identity affine
	bn.SetTraining(false)
	check("ForwardReLU", bn.ForwardReLU(nil, x.Clone()).Data)

	rng := rand.New(rand.NewSource(28))
	m := evalModel(t, "irfusion", rng)
	m.Params()[1].Data[0] = math.NaN() // the first convolution's bias
	in := randInput(rng, 1, 14, 32, 32)
	for _, tp := range []*nn.Tape{nil, nn.NewEvalTape(), nn.NewTape()} {
		nan := false
		for _, v := range m.Forward(tp, in).Data {
			nan = nan || math.IsNaN(v)
		}
		if !nan {
			t.Errorf("irfusion with a NaN bias in its first convolution predicts a NaN-free map (eval tape %t)", tp != nil)
		}
	}
}
