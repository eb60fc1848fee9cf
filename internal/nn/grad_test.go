package nn

import (
	"math"
	"math/rand"
	"testing"
)

// checkGrad verifies the analytic gradient of every checked tensor
// against central finite differences of the scalar loss produced by
// forward. forward must be deterministic and must not mutate state.
func checkGrad(t *testing.T, name string, checked []*Tensor, forward func(tp *Tape) *Tensor) {
	t.Helper()
	tp := NewTape()
	loss := forward(tp)
	if loss.Size() != 1 {
		t.Fatalf("%s: loss not scalar", name)
	}
	for _, x := range checked {
		x.zeroGrad()
	}
	tp.Backward(loss)

	const eps = 1e-6
	for xi, x := range checked {
		// Check every element for small tensors, a sample for big ones.
		stride := 1
		if len(x.Data) > 64 {
			stride = len(x.Data) / 64
		}
		for i := 0; i < len(x.Data); i += stride {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := forward(nil).Data[0]
			x.Data[i] = orig - eps
			lm := forward(nil).Data[0]
			x.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := x.Grad[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 1e-5 {
				t.Errorf("%s: tensor %d elem %d: analytic %.8g vs numeric %.8g",
					name, xi, i, analytic, numeric)
				return
			}
		}
	}
}

func randParam(rng *rand.Rand, shape ...int) *Tensor {
	p := NewParam(shape...)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

func TestGradElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randParam(rng, 2, 3, 4, 4)
	y := randParam(rng, 2, 3, 4, 4)

	checkGrad(t, "Add", []*Tensor{x, y}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, Add(tp, x, y), Add(tp, x, y)))
	})
	checkGrad(t, "sub", []*Tensor{x, y}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, sub(tp, x, y), sub(tp, x, y)))
	})
	checkGrad(t, "mul", []*Tensor{x, y}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, x, y))
	})
	checkGrad(t, "scale", []*Tensor{x}, func(tp *Tape) *Tensor {
		return mean(tp, scale(tp, x, -2.5))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randParam(rng, 1, 2, 5, 5)
	// Keep values away from the ReLU kink.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] += 0.1
		}
	}
	checkGrad(t, "ReLU", []*Tensor{x}, func(tp *Tape) *Tensor {
		return mean(tp, ReLU(tp, x))
	})
	checkGrad(t, "Sigmoid", []*Tensor{x}, func(tp *Tape) *Tensor {
		return mean(tp, Sigmoid(tp, x))
	})
}

func TestGradLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pred := randParam(rng, 1, 1, 4, 4)
	target := NewTensor(1, 1, 4, 4)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	checkGrad(t, "MSELoss", []*Tensor{pred}, func(tp *Tape) *Tensor {
		return MSELoss(tp, pred, target)
	})
}

func TestGradBroadcastMuls(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randParam(rng, 2, 3, 4, 4)
	sc := randParam(rng, 2, 3, 1, 1)
	sp := randParam(rng, 2, 1, 4, 4)
	checkGrad(t, "MulChannel", []*Tensor{x, sc}, func(tp *Tape) *Tensor {
		return mean(tp, MulChannel(tp, x, sc))
	})
	checkGrad(t, "MulSpatial", []*Tensor{x, sp}, func(tp *Tape) *Tensor {
		return mean(tp, MulSpatial(tp, x, sp))
	})
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 1, 2, 3, 3)
	b := randParam(rng, 1, 3, 3, 3)
	w := NewTensor(1, 5, 3, 3)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	checkGrad(t, "Concat", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, Concat(tp, a, b), w))
	})
}

func TestGradConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randParam(rng, 2, 3, 6, 6)
	w := randParam(rng, 4, 3, 3, 3)
	b := randParam(rng, 4)
	checkGrad(t, "conv2D-same", []*Tensor{x, w, b}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, conv2D(tp, x, w, b, 1, 1), conv2D(tp, x, w, b, 1, 1)))
	})
	checkGrad(t, "conv2D-stride2", []*Tensor{x, w, b}, func(tp *Tape) *Tensor {
		return mean(tp, conv2D(tp, x, w, b, 2, 1))
	})
	w1 := randParam(rng, 2, 3, 1, 1)
	checkGrad(t, "conv2D-1x1", []*Tensor{x, w1}, func(tp *Tape) *Tensor {
		return mean(tp, conv2D(tp, x, w1, nil, 1, 0))
	})
}

func TestGradConvRect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randParam(rng, 1, 2, 6, 6)
	w := randParam(rng, 3, 2, 1, 5)
	b := randParam(rng, 3)
	checkGrad(t, "conv2D-1x5", []*Tensor{x, w, b}, func(tp *Tape) *Tensor {
		return mean(tp, conv2DRect(tp, x, w, b, 1, 0, 2))
	})
	w2 := randParam(rng, 3, 2, 5, 1)
	checkGrad(t, "conv2D-5x1", []*Tensor{x, w2, b}, func(tp *Tape) *Tensor {
		return mean(tp, conv2DRect(tp, x, w2, b, 1, 2, 0))
	})
}

func TestGradPad2D(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randParam(rng, 1, 2, 3, 4)
	checkGrad(t, "pad2D", []*Tensor{x}, func(tp *Tape) *Tensor {
		p := pad2D(tp, x, 1, 2)
		return mean(tp, mul(tp, p, p))
	})
}

func TestGradPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randParam(rng, 2, 2, 6, 6)
	// Spread values to avoid max-pool ties.
	for i := range x.Data {
		x.Data[i] += float64(i) * 1e-3
	}
	checkGrad(t, "MaxPool2x2", []*Tensor{x}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, MaxPool2x2(tp, x), MaxPool2x2(tp, x)))
	})
	checkGrad(t, "AvgPool2x2", []*Tensor{x}, func(tp *Tape) *Tensor {
		return mean(tp, mul(tp, AvgPool2x2(tp, x), AvgPool2x2(tp, x)))
	})
	checkGrad(t, "GlobalAvgPool", []*Tensor{x}, func(tp *Tape) *Tensor {
		g := GlobalAvgPool(tp, x)
		return mean(tp, mul(tp, g, g))
	})
	checkGrad(t, "GlobalMaxPool", []*Tensor{x}, func(tp *Tape) *Tensor {
		g := GlobalMaxPool(tp, x)
		return mean(tp, mul(tp, g, g))
	})
	checkGrad(t, "ChannelMean", []*Tensor{x}, func(tp *Tape) *Tensor {
		g := ChannelMean(tp, x)
		return mean(tp, mul(tp, g, g))
	})
	checkGrad(t, "ChannelMax", []*Tensor{x}, func(tp *Tape) *Tensor {
		g := ChannelMax(tp, x)
		return mean(tp, mul(tp, g, g))
	})
}

func TestGradUpsample(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randParam(rng, 1, 3, 4, 4)
	checkGrad(t, "Upsample2x", []*Tensor{x}, func(tp *Tape) *Tensor {
		u := Upsample2x(tp, x)
		return mean(tp, mul(tp, u, u))
	})
}

func TestGradLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randParam(rng, 3, 5)
	w := randParam(rng, 4, 5)
	b := randParam(rng, 4)
	checkGrad(t, "Linear", []*Tensor{x, w, b}, func(tp *Tape) *Tensor {
		y := Linear(tp, x, w, b)
		return mean(tp, mul(tp, y, y))
	})
}

func TestGradBatchNormTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randParam(rng, 2, 3, 4, 4)
	bn := NewBatchNorm2d(3)
	// Freeze running-stat updates' effect on the check: each forward
	// recomputes batch stats from x, which is exactly what the
	// gradient is defined against. Running-stat bookkeeping does not
	// change outputs in training mode.
	checkGrad(t, "BatchNorm-train", []*Tensor{x, bn.Gamma, bn.Beta}, func(tp *Tape) *Tensor {
		y := bn.Forward(tp, x)
		return mean(tp, mul(tp, y, y))
	})
}

func TestGradBatchNormEval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randParam(rng, 2, 3, 4, 4)
	bn := NewBatchNorm2d(3)
	// Populate running stats with one training pass, then freeze.
	bn.Forward(nil, x)
	bn.SetTraining(false)
	checkGrad(t, "BatchNorm-eval", []*Tensor{x, bn.Gamma, bn.Beta}, func(tp *Tape) *Tensor {
		y := bn.Forward(tp, x)
		return mean(tp, mul(tp, y, y))
	})
}

func TestGradDeepComposite(t *testing.T) {
	// A miniature conv->bn->relu->pool->upsample->concat network,
	// checking that gradients survive composition.
	rng := rand.New(rand.NewSource(14))
	x := randParam(rng, 1, 2, 8, 8)
	conv1 := NewConv2d(rng, 2, 4, 3, 1, 1)
	conv2 := NewConv2d(rng, 8, 1, 1, 1, 0)
	checked := []*Tensor{x, conv1.W, conv1.B, conv2.W, conv2.B}
	checkGrad(t, "composite", checked, func(tp *Tape) *Tensor {
		h := ReLU(tp, conv1.Forward(tp, x))
		down := MaxPool2x2(tp, h)
		up := Upsample2x(tp, down)
		cat := Concat(tp, up, h)
		out := conv2.Forward(tp, cat)
		return mean(tp, mul(tp, out, out))
	})
}

func TestGradAvgPool3x3Same(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := randParam(rng, 1, 2, 5, 5)
	checkGrad(t, "AvgPool3x3Same", []*Tensor{x}, func(tp *Tape) *Tensor {
		p := AvgPool3x3Same(tp, x)
		return mean(tp, mul(tp, p, p))
	})
}

func TestGradBroadcastHW(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randParam(rng, 2, 3, 1, 1)
	checkGrad(t, "BroadcastHW", []*Tensor{x}, func(tp *Tape) *Tensor {
		b := BroadcastHW(tp, x, 4, 5)
		return mean(tp, mul(tp, b, b))
	})
}

func TestGradWeightedMSELoss(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pred := randParam(rng, 1, 1, 4, 4)
	target := NewTensor(1, 1, 4, 4)
	w := NewTensor(1, 1, 4, 4)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
		w.Data[i] = rng.Float64() * 3
	}
	checkGrad(t, "WeightedMSELoss", []*Tensor{pred}, func(tp *Tape) *Tensor {
		return WeightedMSELoss(tp, pred, target, w)
	})
}

func TestWeightedMSEEqualsMSEForUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pred := randParam(rng, 1, 1, 3, 3)
	target := NewTensor(1, 1, 3, 3)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64()
	}
	ones := NewTensor(1, 1, 3, 3)
	ones.Fill(1)
	a := MSELoss(nil, pred, target).Data[0]
	b := WeightedMSELoss(nil, pred, target, ones).Data[0]
	if math.Abs(a-b) > 1e-14 {
		t.Errorf("unit-weight WMSE %v != MSE %v", b, a)
	}
}
