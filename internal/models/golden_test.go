package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"irfusion/internal/nn"
)

// The hashes below were recorded at the commit before the blocked GEMM
// kernels landed (PR 21's parent). They pin every served and every
// trained bit: a kernel change that reorders one summation changes a
// hash. Do not re-record them to make a kernel change pass — that
// change has a different contract and must say so.
//
// They are amd64 facts. The language lets a compiler fuse x*y + z into
// one rounding, and the arm64 compiler does (the GEMM leaf compiles to
// FMADDD there), so on other architectures the kernels agree with
// their own in-order reference (nn.TestGemmAgainstNaive runs
// everywhere) but not with these values. On amd64 both GEMM leaves
// produce them: the process's leaf here, the other one through
// nn.TestGemmLeavesAgreeOnModels on the same fixtures.
var goldenForward = map[string]uint64{
	"contestwinner": 0xfb8590d79c324d3d,
	"iredge":        0xe7102becda51e662,
	"irfusion":      0x4662b8cd9dc0d42b,
	"irpnet":        0x1c189bd821627286,
	"maunet":        0x8dacb624ad2855c9,
	"mavirec":       0x916d9fb0460bcda9,
	"pgau":          0xf0384d0c905448f5,
}

const goldenTrained uint64 = 0x43bbcf3d3ae04431

// goldenCfg is the served model size (core.Default) over the default
// feature stack's 14 channels.
func goldenCfg() Config { return Config{InChannels: 14, Base: 8, Depth: 3, Seed: 1} }

// bitsHash is FNV-64a over the IEEE-754 bits of every value, in order.
func bitsHash(vecs ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// skipUnlessAMD64 skips on every architecture but amd64, the one the
// hashes were recorded on.
func skipUnlessAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the recorded hashes are amd64 bits: the %s compiler may fuse a multiply and an add into one rounding (FMA)", runtime.GOARCH)
	}
}

// TestGoldenForwardBits: the nil-tape forward output of every
// registered model on a fixed 64×64 input hashes to the recorded value.
func TestGoldenForwardBits(t *testing.T) {
	skipUnlessAMD64(t)
	for _, name := range Names() {
		m, err := New(name, goldenCfg())
		if err != nil {
			t.Fatal(err)
		}
		m.SetTraining(false)
		x := randInput(rand.New(rand.NewSource(64)), 1, 14, 64, 64)
		if got := bitsHash(m.Forward(nil, x).Data); got != goldenForward[name] {
			t.Errorf("%s: output hashes to %#x, recorded %#x", name, got, goldenForward[name])
		}
	}
}

// TestGoldenTrainedBits: every parameter of irfusion after two Adam
// steps on the nn.TestTrainingReducesLossOnTinyCNN fixture (seed 23,
// normal inputs, 0.1-scaled normal targets, Adam 0.01, MSE) hashes to
// the recorded value, so the backward kernels are pinned too.
func TestGoldenTrainedBits(t *testing.T) {
	skipUnlessAMD64(t)
	rng := rand.New(rand.NewSource(23))
	x := randInput(rng, 2, 14, 32, 32)
	target := randInput(rng, 2, 1, 32, 32)
	for i := range target.Data {
		target.Data[i] *= 0.1
	}
	m, err := New("irfusion", goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	opt := nn.NewAdam(0.01)
	for step := 0; step < 2; step++ {
		tp := nn.NewTape()
		loss := nn.MSELoss(tp, m.Forward(tp, x), target)
		nn.ZeroGrads(params)
		tp.Backward(loss)
		opt.Step(params)
	}
	data := make([][]float64, len(params))
	for i, p := range params {
		data[i] = p.Data
	}
	if got := bitsHash(data...); got != goldenTrained {
		t.Errorf("trained parameters: %#x, recorded %#x", got, goldenTrained)
	}
}
