package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	if x.Size() != 6 || x.Dim(1) != 3 {
		t.Error("shape accessors wrong")
	}
	x.Fill(2)
	if x.Data[5] != 2 {
		t.Error("Fill failed")
	}
	r := x.Reshape(3, 2)
	r.Data[0] = 9
	if x.Data[0] != 9 {
		t.Error("Reshape must share storage")
	}
	c := x.Clone()
	c.Data[0] = 1
	if x.Data[0] != 9 {
		t.Error("Clone must copy")
	}
}

func TestTensorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad-dim":      func() { NewTensor(0, 2) },
		"bad-reshape":  func() { NewTensor(2, 2).Reshape(3) },
		"bad-from":     func() { FromSlice([]float64{1}, 2, 2) },
		"non-4d":       func() { NewTensor(2, 2).Dims4() },
		"add-mismatch": func() { Add(nil, NewTensor(2), NewTensor(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[p*n+j]
				}
				want[i*n+j] = s
			}
		}
		c := make([]float64, m*n)
		gemm(a, b, c, m, k, n, false)
		for i := range c {
			if math.Abs(c[i]-want[i]) > 1e-10 {
				return false
			}
		}
		// Aᵀ path: build at = transpose(a), then gemmTA(at) == a·b.
		at := make([]float64, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*m+i] = a[i*k+p]
			}
		}
		c2 := make([]float64, m*n)
		gemmTA(at, b, c2, m, k, n, false)
		for i := range c2 {
			if math.Abs(c2[i]-want[i]) > 1e-10 {
				return false
			}
		}
		// Bᵀ path.
		bt := make([]float64, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		c3 := make([]float64, m*n)
		gemmTB(a, bt, c3, m, k, n, false)
		for i := range c3 {
			if math.Abs(c3[i]-want[i]) > 1e-10 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestGemmAccumulate(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	c := []float64{10}
	gemm(a, []float64{3, 4}, c, 1, 2, 1, true)
	_ = b
	if c[0] != 10+11 {
		t.Errorf("accumulate: got %v, want 21", c[0])
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1x1 input channel, 3x3 image, identity-ish kernel.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w := FromSlice([]float64{
		0, 0, 0,
		0, 1, 0,
		0, 0, 0,
	}, 1, 1, 3, 3)
	y := Conv2D(nil, x, w, nil, 1, 1)
	for i := range y.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity kernel changed data: %v", y.Data)
		}
	}
	// Sum kernel, valid padding.
	ws := FromSlice([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	y2 := Conv2D(nil, x, ws, nil, 1, 0)
	if y2.Size() != 1 || y2.Data[0] != 45 {
		t.Fatalf("sum kernel: got %v, want [45]", y2.Data)
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		0, 0, 1, 1,
		0, 9, 1, 1,
	}, 1, 1, 4, 4)
	y := MaxPool2x2(nil, x)
	want := []float64{4, 8, 9, 1}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("maxpool: got %v, want %v", y.Data, want)
		}
	}
}

func TestUpsampleKnownValues(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	y := Upsample2x(nil, x)
	want := []float64{
		1, 1, 2, 2,
		1, 1, 2, 2,
		3, 3, 4, 4,
		3, 3, 4, 4,
	}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("upsample: got %v", y.Data)
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := NewTensor(4, 2, 8, 8)
	for i := range x.Data {
		x.Data[i] = 5 + 3*rng.NormFloat64()
	}
	bn := NewBatchNorm2d(2)
	y := bn.Forward(nil, x)
	// Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
	for c := 0; c < 2; c++ {
		sum, sum2, n := 0.0, 0.0, 0
		for ni := 0; ni < 4; ni++ {
			for j := 0; j < 64; j++ {
				v := y.Data[(ni*2+c)*64+j]
				sum += v
				sum2 += v * v
				n++
			}
		}
		mean := sum / float64(n)
		variance := sum2/float64(n) - mean*mean
		// Variance lands at σ²/(σ²+ε), slightly below 1.
		if math.Abs(mean) > 1e-10 || math.Abs(variance-1) > 1e-4 {
			t.Errorf("channel %d: mean %v var %v", c, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bn := NewBatchNorm2d(1)
	x := NewTensor(2, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = 10 + rng.NormFloat64()
	}
	bn.Forward(nil, x) // sets running stats
	bn.SetTraining(false)
	// A wildly different input must be normalized by the OLD stats.
	z := NewTensor(1, 1, 4, 4)
	z.Fill(10)
	y := bn.Forward(nil, z)
	// Expected: (10 - runMean)/sqrt(runVar + eps).
	want := (10 - bn.RunMean[0]) / math.Sqrt(bn.RunVar[0]+bn.Eps)
	if math.Abs(y.Data[0]-want) > 1e-12 {
		t.Errorf("eval output %v, want %v", y.Data[0], want)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||x - target||² — Adam should get close quickly.
	target := []float64{1, -2, 3}
	x := NewParam(3)
	opt := NewAdam(0.1)
	tt := NewTensor(3)
	copy(tt.Data, target)
	for step := 0; step < 300; step++ {
		tp := NewTape()
		loss := MSELoss(tp, x, tt)
		ZeroGrads([]*Tensor{x})
		tp.Backward(loss)
		opt.Step([]*Tensor{x})
	}
	for i := range target {
		if math.Abs(x.Data[i]-target[i]) > 1e-3 {
			t.Errorf("x[%d] = %v, want %v", i, x.Data[i], target[i])
		}
	}
}

func TestAdamGradClip(t *testing.T) {
	x := NewParam(2)
	x.Grad[0] = 300
	x.Grad[1] = 400 // norm 500
	opt := NewAdam(0.1)
	opt.GradClip = 5
	opt.Step([]*Tensor{x})
	norm := math.Sqrt(x.Grad[0]*x.Grad[0] + x.Grad[1]*x.Grad[1])
	if math.Abs(norm-5) > 1e-9 {
		t.Errorf("clipped norm %v, want 5", norm)
	}
}

func TestNumParams(t *testing.T) {
	if n := NumParams([]*Tensor{NewParam(2, 3), NewParam(4)}); n != 10 {
		t.Errorf("NumParams = %d, want 10", n)
	}
}

func TestNilTapeSkipsRecording(t *testing.T) {
	x := NewParam(2, 2, 4, 4)
	y := ReLU(nil, x)
	if y.needsGrad {
		t.Error("nil tape must not mark outputs as differentiable")
	}
	var tp *Tape
	if tp.Len() != 0 {
		t.Error("nil tape Len should be 0")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := NewTape()
	x := NewParam(2)
	y := Scale(tp, x, 2)
	tp.Backward(y)
}

func TestTrainingReducesLossOnTinyCNN(t *testing.T) {
	// End-to-end: a 2-layer CNN should fit a fixed random mapping.
	rng := rand.New(rand.NewSource(23))
	x := NewTensor(2, 2, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	target := NewTensor(2, 1, 8, 8)
	for i := range target.Data {
		target.Data[i] = rng.NormFloat64() * 0.1
	}
	c1 := NewConv2d(rng, 2, 6, 3, 1, 1)
	c2 := NewConv2d(rng, 6, 1, 3, 1, 1)
	params := append(c1.Params(), c2.Params()...)
	opt := NewAdam(0.01)
	var first, last float64
	for step := 0; step < 150; step++ {
		tp := NewTape()
		h := ReLU(tp, c1.Forward(tp, x))
		pred := c2.Forward(tp, h)
		loss := MSELoss(tp, pred, target)
		if step == 0 {
			first = loss.Data[0]
		}
		last = loss.Data[0]
		ZeroGrads(params)
		tp.Backward(loss)
		opt.Step(params)
	}
	if last > first*0.5 {
		t.Errorf("training barely reduced loss: %v -> %v", first, last)
	}
}

func TestConv2dRectLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	l := NewConv2dRect(rng, 2, 3, 1, 7, 1, 0, 3)
	if len(l.Params()) != 2 {
		t.Fatal("rect conv params wrong")
	}
	x := NewTensor(1, 2, 5, 9)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := l.Forward(nil, x)
	if n, c, h, w := y.Dims4(); n != 1 || c != 3 || h != 5 || w != 9 {
		t.Fatalf("rect conv shape [%d %d %d %d]", n, c, h, w)
	}
}

func TestConv2dParamsAndStateAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := NewConv2d(rng, 2, 3, 3, 1, 1)
	if len(c.Params()) != 2 {
		t.Fatal("conv params wrong")
	}
	bn := NewBatchNorm2d(3)
	if len(bn.Params()) != 2 {
		t.Fatal("bn params wrong")
	}
	st := bn.StateVectors()
	if len(st) != 2 || len(st[0]) != 3 {
		t.Fatal("bn state wrong")
	}
}

func TestNeedsGrad(t *testing.T) {
	if !NewParam(1).NeedsGrad() || NewTensor(1).NeedsGrad() {
		t.Error("NeedsGrad flags wrong")
	}
}

func TestParallelForCoversRange(t *testing.T) {
	// Large n exercises the multi-worker path; verify exact coverage.
	n := 10000
	hits := make([]int32, n)
	parallelFor(n, func(start, end int) {
		for i := start; i < end; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}
