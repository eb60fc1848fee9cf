package nn_test

import (
	"math/rand"
	"testing"

	"irfusion/internal/models"
	"irfusion/internal/nn"
)

// TestGemmLeavesAgreeOnModels: models/golden_test.go pins every served
// and every trained bit on the leaf the process selected; this test
// holds the other leaf to them. On that file's two fixtures — every
// registered model's nil-tape forward of a 64×64 input, and irfusion's
// parameters after two Adam steps — the vector leaf and the Go leaf
// produce the same bits, so the recorded hashes are both leaves'.
func TestGemmLeavesAgreeOnModels(t *testing.T) {
	var runs [][][]float64
	nn.ForEachLeaf(t, func(t *testing.T) {
		var bits [][]float64
		for _, name := range models.Names() {
			m, err := models.New(name, servedCfg())
			if err != nil {
				t.Fatal(err)
			}
			m.SetTraining(false)
			bits = append(bits, m.Forward(nil, randInput(rand.New(rand.NewSource(64)), 1, 14, 64, 64)).Data)
		}
		rng := rand.New(rand.NewSource(23))
		x, target := randInput(rng, 2, 14, 32, 32), randInput(rng, 2, 1, 32, 32)
		m, err := models.New("irfusion", servedCfg())
		if err != nil {
			t.Fatal(err)
		}
		params, opt := m.Params(), nn.NewAdam(0.01)
		for step := 0; step < 2; step++ {
			tp := nn.NewTape()
			loss := nn.MSELoss(tp, m.Forward(tp, x), target)
			nn.ZeroGrads(params)
			tp.Backward(loss)
			opt.Step(params)
		}
		for _, p := range params {
			bits = append(bits, p.Data)
		}
		runs = append(runs, bits)
	})
	if len(runs) < 2 {
		t.Skip("this machine runs the Go leaf only")
	}
	for i, want := range runs[1] {
		if j := firstDifference(runs[0][i], want); j >= 0 {
			t.Errorf("vector %d (forward outputs in models.Names() order, then irfusion's trained parameters): element %d is %v on the vector leaf, %v on the Go leaf", i, j, runs[0][i][j], want[j])
		}
	}
}
