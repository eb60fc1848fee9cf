package models

import (
	"math"
	"math/rand"
	"testing"

	"irfusion/internal/nn"
)

func smallCfg() Config {
	return Config{InChannels: 5, Base: 4, Depth: 2, Seed: 3}
}

func randInput(rng *rand.Rand, n, c, h, w int) *nn.Tensor {
	x := nn.NewTensor(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestAllModelsForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range Names() {
		m, err := New(name, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		x := randInput(rng, 2, 5, 16, 16)
		y := m.Forward(nil, x)
		n, c, h, w := y.Dims4()
		if n != 2 || c != 1 || h != 16 || w != 16 {
			t.Errorf("%s: output shape [%d %d %d %d], want [2 1 16 16]", name, n, c, h, w)
		}
		if len(m.Params()) == 0 {
			t.Errorf("%s: no parameters", name)
		}
		for _, v := range y.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite output", name)
			}
		}
	}
}

func TestModelsAreDistinct(t *testing.T) {
	// Distinct architectures should have distinct parameter counts.
	counts := map[int][]string{}
	for _, name := range Names() {
		m, _ := New(name, smallCfg())
		n := nn.NumParams(m.Params())
		counts[n] = append(counts[n], name)
	}
	for n, names := range counts {
		if len(names) > 1 {
			t.Errorf("models %v share parameter count %d — suspicious duplication", names, n)
		}
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := New("nope", smallCfg()); err == nil {
		t.Error("expected error for unknown model")
	}
}

func TestNamesComplete(t *testing.T) {
	want := []string{"contestwinner", "iredge", "irfusion", "irpnet", "maunet", "mavirec", "pgau"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := New("irfusion", smallCfg())
	b, _ := New("irfusion", smallCfg())
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param list mismatch")
	}
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestModelTrainsOnIdentityTask(t *testing.T) {
	// Every model should be able to shrink the loss on a tiny
	// regression task: predict channel 0 of the input.
	rng := rand.New(rand.NewSource(7))
	x := randInput(rng, 2, 5, 8, 8)
	target := nn.NewTensor(2, 1, 8, 8)
	for ni := 0; ni < 2; ni++ {
		copy(target.Data[ni*64:(ni+1)*64], x.Data[ni*5*64:ni*5*64+64])
	}
	for _, name := range Names() {
		cfg := smallCfg()
		cfg.Depth = 2
		m, _ := New(name, cfg)
		m.SetTraining(true)
		opt := nn.NewAdam(0.01)
		params := m.Params()
		var first, last float64
		for step := 0; step < 30; step++ {
			tp := nn.NewTape()
			loss := nn.MSELoss(tp, m.Forward(tp, x), target)
			if step == 0 {
				first = loss.Data[0]
			}
			last = loss.Data[0]
			nn.ZeroGrads(params)
			tp.Backward(loss)
			opt.Step(params)
		}
		if !(last < first) {
			t.Errorf("%s: loss did not decrease (%v -> %v)", name, first, last)
		}
	}
}

func TestAblatedVariantsDiffer(t *testing.T) {
	full := newIRFusionNet(smallCfg())
	noInc := NewIRFusionNetAblated(smallCfg(), false, true, true)
	noCBAM := NewIRFusionNetAblated(smallCfg(), true, true, false)
	nFull := nn.NumParams(full.Params())
	nNoInc := nn.NumParams(noInc.Params())
	nNoCBAM := nn.NumParams(noCBAM.Params())
	if nNoCBAM >= nFull {
		t.Errorf("removing CBAM should shrink the model: %d vs %d", nNoCBAM, nFull)
	}
	if nNoInc == nFull {
		t.Error("removing Inception should change the model")
	}
	if noInc.Name() == full.Name() || noCBAM.Name() == full.Name() {
		t.Error("ablated names should differ")
	}
}

func TestGradientFlowsToAllParams(t *testing.T) {
	// After one backward pass on a random input every parameter
	// tensor should receive some gradient signal (catches dead
	// branches / unwired modules).
	rng := rand.New(rand.NewSource(9))
	for _, name := range Names() {
		m, _ := New(name, smallCfg())
		m.SetTraining(true)
		x := randInput(rng, 2, 5, 16, 16)
		tp := nn.NewTape()
		pred := m.Forward(tp, x)
		target := nn.NewTensor(2, 1, 16, 16)
		loss := nn.MSELoss(tp, pred, target)
		params := m.Params()
		nn.ZeroGrads(params)
		tp.Backward(loss)
		dead := 0
		for _, p := range params {
			max := 0.0
			for _, g := range p.Grad {
				if a := math.Abs(g); a > max {
					max = a
				}
			}
			if max == 0 {
				dead++
			}
		}
		// Allow a couple of dead tensors (e.g. a bias behind BN can
		// legitimately cancel), but a wholesale dead branch is a bug.
		if dead > len(params)/8 {
			t.Errorf("%s: %d of %d parameter tensors received no gradient", name, dead, len(params))
		}
	}
}

func TestSetTrainingTogglesBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, _ := New("iredge", smallCfg())
	x := randInput(rng, 2, 5, 8, 8)
	m.SetTraining(true)
	m.Forward(nil, x) // populate running stats
	m.SetTraining(false)
	y1 := m.Forward(nil, x)
	y2 := m.Forward(nil, x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("eval mode must be deterministic across calls")
		}
	}
}

func TestInceptionRequiresDivisibleBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Base not divisible by 4")
		}
	}()
	newIRFusionNet(Config{InChannels: 3, Base: 6, Depth: 2, Seed: 1})
}

func TestStateVectorsPresent(t *testing.T) {
	// Every model with batch-norm layers must expose its running
	// statistics: two vectors per BN layer, sized to its channels.
	for _, name := range Names() {
		m, _ := New(name, smallCfg())
		st := m.State()
		if len(st) == 0 {
			t.Errorf("%s: no state vectors (batch-norm stats missing)", name)
			continue
		}
		if len(st)%2 != 0 {
			t.Errorf("%s: odd state vector count %d", name, len(st))
		}
		for i, v := range st {
			if len(v) == 0 {
				t.Errorf("%s: empty state vector %d", name, i)
			}
		}
	}
}

func TestStateSharedWithForward(t *testing.T) {
	// State() must return live views: a training forward pass changes
	// the running statistics in place.
	rng := rand.New(rand.NewSource(41))
	m, _ := New("irfusion", smallCfg())
	st := m.State()
	before := append([]float64(nil), st[0]...)
	m.SetTraining(true)
	m.Forward(nil, randInput(rng, 1, 5, 16, 16))
	changed := false
	for i := range st[0] {
		if st[0][i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("State() vectors not updated by a training forward pass")
	}
}

func TestModelNamesStrings(t *testing.T) {
	want := map[string]string{
		"iredge":        "IREDGe",
		"mavirec":       "MAVIREC",
		"irpnet":        "IRPnet",
		"pgau":          "PGAU",
		"maunet":        "MAUnet",
		"contestwinner": "ContestWinner",
		"irfusion":      "IR-Fusion",
	}
	for key, label := range want {
		m, err := New(key, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != label {
			t.Errorf("%s: Name() = %q, want %q", key, m.Name(), label)
		}
	}
}

// TestEvalForwardMatchesTapedForward: in eval mode a nil tape selects
// the inference kernels (pooled im2col buffer, statistics-free batch
// norm); every registered model must produce the taped path's bits,
// after a training step has moved the running statistics off their
// initial values.
func TestEvalForwardMatchesTapedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, name := range Names() {
		m, err := New(name, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		m.SetTraining(true)
		m.Forward(nil, randInput(rng, 2, 5, 16, 16))
		m.SetTraining(false)
		x := randInput(rng, 1, 5, 16, 16)
		want := m.Forward(nn.NewTape(), x)
		got := m.Forward(nil, x)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Errorf("%s: element %d is %v on the nil-tape path, %v on the taped path", name, i, got.Data[i], want.Data[i])
				break
			}
		}
	}
}
