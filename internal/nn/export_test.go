package nn

import (
	"math"
	"testing"
)

// Poison fills everything an inference tape will lend or use as
// scratch — its block and its column panel — with NaN, so an op that
// relies on what a previous pass (or a fresh allocation's zeroes) left
// in its output shows up in the answer.
func (t *Tape) Poison() {
	for _, buf := range [][]float64{t.block, t.cols[:cap(t.cols)]} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
}

// BlockLen reports the size of the block in floats.
func (t *Tape) BlockLen() int { return len(t.block) }

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic("nn: FromSlice size mismatch")
	}
	return t
}

// ForEachLeaf runs fn as a subtest on every GEMM leaf this machine has:
// the one the process selected and, where that is the vector leaf, the
// Go leaf as well. Tests that pin bits run under it so that both leaves
// are held to the same recorded values.
func ForEachLeaf(t *testing.T, fn func(t *testing.T)) {
	t.Run("leaf="+Kernel(), fn)
	if useAVX2 {
		useAVX2 = false
		defer func() { useAVX2 = true }()
		t.Run("leaf=go", fn)
	}
}
