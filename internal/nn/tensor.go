// Package nn is a small, self-contained neural-network engine built
// for the IR-Fusion reproduction: float64 NCHW tensors, reverse-mode
// automatic differentiation on a tape, the convolutional building
// blocks required by U-Net-family models (conv, pooling, upsampling,
// batch-norm, channel/spatial attention primitives), losses, and the
// Adam optimizer. Everything is deterministic given a seeded
// *rand.Rand and runs multi-threaded on the CPU.
//
// Every op takes the Tape that owns the pass. Its output comes from
// result(): zeroed only on a recording tape, otherwise holding what an
// earlier pass left — an op must write every element and read none first.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is an n-dimensional array. Convolutional ops expect the NCHW
// layout. Grad is allocated for tensors that participate in
// differentiation (parameters and intermediate values on a tape).
type Tensor struct {
	Shape []int
	Data  []float64
	Grad  []float64
	// needsGrad marks tensors whose Grad must be populated during the
	// backward pass (parameters, or values computed from them).
	needsGrad bool
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("nn: invalid tensor dim %v", shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// NewParam allocates a trainable tensor (gradient tracked).
func NewParam(shape ...int) *Tensor {
	t := NewTensor(shape...)
	t.needsGrad = true
	t.Grad = make([]float64, len(t.Data))
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Dim returns Shape[i].
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// ensureGrad allocates the gradient buffer when missing.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// zeroGrad clears the gradient buffer.
func (t *Tensor) zeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Clone returns a deep copy (gradients not copied).
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Shape...)
	copy(c.Data, t.Data)
	c.needsGrad = t.needsGrad
	if c.needsGrad {
		c.Grad = make([]float64, len(c.Data))
	}
	return c
}

// Reshape returns a view with a new shape sharing data and grad.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != t.Size() {
		panic(fmt.Sprintf("nn: reshape %v -> %v changes size", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data, Grad: t.Grad, needsGrad: t.needsGrad}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// heInit fills the tensor with He-normal random values appropriate
// for ReLU networks, using fanIn as the scaling denominator.
func (t *Tensor) heInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// XavierInit fills with Xavier/Glorot-normal values (sigmoid/tanh
// heads).
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	std := math.Sqrt(2 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// At returns the element at NCHW index (n, c, h, w) of a 4-D tensor.
func (t *Tensor) At(n, c, h, w int) float64 {
	_, C, H, W := t.Dims4()
	return t.Data[((n*C+c)*H+h)*W+w]
}

// Dims4 unpacks a 4-D shape.
func (t *Tensor) Dims4() (n, c, h, w int) {
	if len(t.Shape) != 4 {
		panic(fmt.Sprintf("nn: expected 4-D tensor, got shape %v", t.Shape))
	}
	return t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
}

// sameShape reports whether two tensors have identical shapes.
func sameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}
