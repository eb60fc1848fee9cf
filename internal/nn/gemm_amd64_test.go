package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The vector leaf against the Go leaf, which is its specification:
// gemmQuad (gemmQuadAVX2 plus the Go remainders) must leave the bits
// gemmQuadGo leaves, and nothing else changed.

// canary fills every float a leaf must not write: the margins of C's
// rows and the ends of its allocation. Finite, so it compares exactly.
var canary = math.Float64frombits(0x4cafe0c0ffee0bad)

// specials are the values rounding and propagation bugs show on.
var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// quadCase is one gemmQuad call: four rows of A read through the plain
// (sai = k, sap = 1) or the transposed (sai = 1, sap = 4) layout, a
// w-column panel inside B rows of w+ldbPad and C rows of w+ldcPad
// floats, every slice starting off floats into its allocation so that
// no vector access is aligned by luck.
type quadCase struct {
	k, w           int
	transA         bool
	ldbPad, ldcPad int
	off            int
	accumulate     bool // C starts with values, not cleared
	special        bool // one value in eight comes from specials
	seed           int64
}

func (q quadCase) String() string {
	return fmt.Sprintf("k=%d w=%d transA=%t ldb=w+%d ldc=w+%d off=%d accumulate=%t special=%t seed=%d",
		q.k, q.w, q.transA, q.ldbPad, q.ldcPad, q.off, q.accumulate, q.special, q.seed)
}

// check runs the case on both leaves. B's margins hold NaN — a leaf
// that reads past the panel and uses what it read poisons its answer —
// and C's hold the canary.
func (q quadCase) check(t testing.TB) {
	t.Helper()
	rng := rand.New(rand.NewSource(q.seed))
	value := func() float64 {
		if q.special && rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	fill := func(v []float64, f func() float64) {
		for i := range v {
			v[i] = f()
		}
	}
	sai, sap := q.k, 1
	if q.transA {
		sai, sap = 1, 4
	}
	a := make([]float64, q.off+4*q.k)[q.off:]
	fill(a, value)

	ldb, lb := q.w+q.ldbPad, q.ldbPad/2
	bAll := make([]float64, q.off+q.k*ldb)[q.off:]
	fill(bAll, math.NaN)
	for p := 0; p < q.k; p++ {
		fill(bAll[p*ldb+lb:][:q.w], value)
	}

	const end = 4 // canaries before row 0 and after row 3 even when ldcPad is 0
	ldc, lc := q.w+q.ldcPad, end+q.ldcPad/2
	cAll := make([]float64, q.off+end+4*ldc+end)[q.off:]
	fill(cAll, func() float64 { return canary })
	for i := 0; i < 4; i++ {
		row := cAll[i*ldc+lc:][:q.w]
		clear(row)
		if q.accumulate {
			fill(row, value)
		}
	}
	run := func(leaf func(a, b, c0, c1, c2, c3 []float64)) []float64 {
		c := slices.Clone(cAll)
		leaf(a, bAll[lb:], c[lc:][:q.w], c[ldc+lc:][:q.w], c[2*ldc+lc:][:q.w], c[3*ldc+lc:][:q.w])
		return c
	}
	want := run(func(a, b, c0, c1, c2, c3 []float64) { gemmQuadGo(a, b, c0, c1, c2, c3, sai, sap, 0, q.k, ldb) })
	got := run(func(a, b, c0, c1, c2, c3 []float64) { gemmQuad(a, b, c0, c1, c2, c3, sai, sap, q.k, ldb) })
	if i := sameFloats(got, want); i >= 0 {
		t.Fatalf("%v: float %d of C's allocation (row stride %d, panel from %d) is %v (%#x), the Go leaf leaves %v (%#x)",
			q, i, ldc, lc, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skip("this machine runs the Go leaf only")
	}
}

// TestGemmQuadLeavesAgree: over k and w on both sides of every multiple
// of four the leaf branches on and at the served sizes, both layouts of
// A, tight and padded rows of B and C, C cleared and pre-filled, every
// offset 0..3 from the allocation's start, and with ±0, denormals, the
// largest finite values, ±Inf and NaN among the inputs.
func TestGemmQuadLeavesAgree(t *testing.T) {
	requireAVX2(t)
	seed := int64(28)
	for _, k := range []int{4, 5, 7, 8, 72, 99, 216} {
		for _, w := range []int{4, 5, 7, 8, 255, 256} {
			for _, transA := range []bool{false, true} {
				for _, pad := range []int{0, 3} {
					for off := 0; off < 4; off++ {
						for _, accumulate := range []bool{false, true} {
							for _, special := range []bool{false, true} {
								seed++
								quadCase{k, w, transA, pad, pad, off, accumulate, special, seed}.check(t)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzGemmQuadLeaves lets the fuzzer pick the shape, the layout, the
// paddings, the offset and the value seed.
func FuzzGemmQuadLeaves(f *testing.F) {
	requireAVX2(f)
	f.Add(uint8(4), uint16(4), false, uint8(0), uint8(0), uint8(0), false, false, int64(1))
	f.Add(uint8(7), uint16(9), true, uint8(3), uint8(1), uint8(1), true, true, int64(2))
	f.Add(uint8(216), uint16(256), false, uint8(0), uint8(5), uint8(3), false, true, int64(3))
	f.Fuzz(func(t *testing.T, k uint8, w uint16, transA bool, ldbPad, ldcPad, off uint8, accumulate, special bool, seed int64) {
		quadCase{1 + int(k), 1 + int(w)%(2*gemmPanel), transA, int(ldbPad % 8), int(ldcPad % 8), int(off % 4), accumulate, special, seed}.check(t)
	})
}
