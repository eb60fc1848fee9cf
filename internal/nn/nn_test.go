package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"irfusion/internal/race"
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

// gemmRef is the in-order reference the blocked kernels must match bit
// for bit: the plain i-p-j loop for C = A·B (A read through its
// strides, which also covers Aᵀ), the plain dot product for C = A·Bᵀ.
func gemmRef(transB bool, a, b, c []float64, sai, sap, m, k, n int, accumulate bool) {
	if !accumulate {
		clear(c[:m*n])
	}
	for i := 0; i < m; i++ {
		ci := c[i*n:][:n]
		if transB {
			for j := range ci {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a[i*sai+p*sap] * b[j*k+p]
				}
				ci[j] += s
			}
			continue
		}
		for p := 0; p < k; p++ {
			av := a[i*sai+p*sap]
			for j, bv := range b[p*n:][:n] {
				ci[j] += av * bv
			}
		}
	}
}

// gemmVariants names the three kernels and which operand they read
// transposed.
var gemmVariants = []struct {
	name           string
	run            func(a, b, c []float64, m, k, n int, accumulate bool)
	transA, transB bool
}{
	{"gemm", gemm, false, false},
	{"gemmTA", gemmTA, true, false},
	{"gemmTB", gemmTB, false, true},
}

func normalSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// sameFloats reports the first index where got and want differ, or -1:
// bits must agree, except that any NaN matches any NaN (no leaf
// promises which payload survives where two meet).
func sameFloats(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// TestGemmAgainstNaive: over the shapes the blocking branches on (row
// quads and their remainders, k quads and theirs, one panel, a panel
// boundary, many panels), with and without accumulation into a
// pre-filled C, every variant returns exactly the bits of the in-order
// reference — on every leaf the machine has.
func TestGemmAgainstNaive(t *testing.T) {
	ForEachLeaf(t, gemmAgainstNaive)
}

func gemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 3, 4, 5, 8, 13, 64, 67} {
		for _, k := range []int{1, 3, 4, 7, 72, 99} {
			for _, n := range []int{1, 7, 255, 256, 257, 1024, 4096} {
				if race.Enabled && m*k*n > 1<<23 {
					continue // the four largest products take a minute under the detector and branch nowhere new
				}
				a, b, c0 := normalSlice(rng, m*k), normalSlice(rng, k*n), normalSlice(rng, m*n)
				for _, v := range gemmVariants {
					sai, sap := k, 1 // A(i,p) = a[i*sai+p*sap]
					if v.transA {
						sai, sap = 1, m
					}
					for _, accumulate := range []bool{false, true} {
						want := slices.Clone(c0)
						gemmRef(v.transB, a, b, want, sai, sap, m, k, n, accumulate)
						got := slices.Clone(c0)
						v.run(a, b, got, m, k, n, accumulate)
						if i := firstBitDiff(got, want); i >= 0 {
							t.Fatalf("%s %dx%dx%d accumulate=%v: c[%d] = %v, reference %v",
								v.name, m, k, n, accumulate, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestGemmPropagatesNonFinite: IEEE semantics hold in every variant and
// through a convolution — a zero weight next to an overflowed
// activation is NaN (0·Inf), never a finite-looking value; a diverged
// input must not hide (cf. metrics.TestNaNPropagation).
func TestGemmPropagatesNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		a, b []float64 // a is 1×2, b is 2×1
		want float64
	}{
		{"0*Inf", []float64{0, 1}, []float64{inf, 2}, nan},
		{"Inf*0", []float64{inf, 1}, []float64{0, 2}, nan},
		{"0*NaN", []float64{0, 1}, []float64{nan, 2}, nan},
		{"1*Inf", []float64{1, 1}, []float64{inf, 2}, inf},
		{"Inf-Inf", []float64{1, -1}, []float64{inf, inf}, nan},
		{"finite", []float64{0, 1}, []float64{5, 2}, 2},
	}
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) } //irfusion:exact Inf and small integers are exact
	for _, tc := range cases {
		for _, v := range gemmVariants {
			// m = n = 1, so A, Aᵀ, B and Bᵀ share one layout.
			c := []float64{0}
			v.run(tc.a, tc.b, c, 1, 2, 1, false)
			if !same(c[0], tc.want) {
				t.Errorf("%s %s: got %v, want %v", v.name, tc.name, c[0], tc.want)
			}
		}
	}
	// The same two products inside a 6×6×7 multiplication, zeros
	// elsewhere, placed in the body the vector leaf takes (rows 0-3,
	// p 0-3, columns 0-3) and in each remainder around it. Element
	// (r, q) is the case's value; every other element is whatever the
	// in-order loop makes of a zero meeting the Inf or NaN.
	const m, k, n = 6, 6, 7
	for _, tc := range cases {
		for _, v := range gemmVariants {
			for _, at := range [][3]int{{1, 0, 2}, {1, 4, 2}, {1, 0, 6}, {5, 0, 2}, {5, 4, 6}} {
				r, p0, q := at[0], at[1], at[2]
				a, b := make([]float64, m*k), make([]float64, k*n)
				sai, sap := k, 1
				if v.transA {
					sai, sap = 1, m
				}
				sbp, sbj := n, 1
				if v.transB {
					sbp, sbj = 1, k
				}
				a[r*sai+p0*sap], a[r*sai+(p0+1)*sap] = tc.a[0], tc.a[1]
				b[p0*sbp+q*sbj], b[(p0+1)*sbp+q*sbj] = tc.b[0], tc.b[1]
				got, want := make([]float64, m*n), make([]float64, m*n)
				v.run(a, b, got, m, k, n, false)
				gemmRef(v.transB, a, b, want, sai, sap, m, k, n, false)
				if !same(got[r*n+q], tc.want) {
					t.Errorf("%s %s at (%d,%d,%d): got %v, want %v", v.name, tc.name, r, p0, q, got[r*n+q], tc.want)
				}
				if i := sameFloats(got, want); i >= 0 {
					t.Errorf("%s %s at (%d,%d,%d): c[%d] = %v, in-order loop %v", v.name, tc.name, r, p0, q, i, got[i], want[i])
				}
			}
		}
	}
	// 3×3 identity kernel, pad 1: output (0,0) sums 1·Inf with zero
	// weights times finite neighbours — Inf; its neighbours sum their
	// own 1·1 with 0·Inf — NaN; nothing else sees the Inf.
	x := FromSlice([]float64{inf, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	w := FromSlice([]float64{0, 0, 0, 0, 1, 0, 0, 0, 0}, 1, 1, 3, 3)
	y := conv2D(nil, x, w, nil, 1, 1)
	for i, v := range y.Data {
		switch oy, ox := i/3, i%3; {
		case i == 0 && !math.IsInf(v, 1):
			t.Errorf("conv output (0,0) = %v, want +Inf", v)
		case i != 0 && oy <= 1 && ox <= 1 && !math.IsNaN(v):
			t.Errorf("conv output (%d,%d) = %v, want NaN: a zero weight met the Inf", oy, ox, v)
		case (oy > 1 || ox > 1) && v != 1: //irfusion:exact 1·1 plus zeros is exactly 1
			t.Errorf("conv output (%d,%d) = %v, want 1", oy, ox, v)
		}
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
	y := conv2D(nil, x, w, nil, 1, 1)
	for i := range y.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity kernel changed data: %v", y.Data)
		}
	}
	// Sum kernel, valid padding.
	ws := FromSlice([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	y2 := conv2D(nil, x, ws, nil, 1, 0)
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
	etp := NewEvalTape()
	if y := ReLU(etp, x); y.needsGrad || len(etp.steps) != 0 {
		t.Error("an inference tape must neither record nor mark outputs as differentiable")
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
	y := scale(tp, x, 2)
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
	if !NewParam(1).needsGrad || NewTensor(1).needsGrad {
		t.Error("needsGrad flags wrong")
	}
}
