//go:build unix

package nn

import (
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n floats of mapped memory with an inaccessible page
// on either side, the slice ending at the upper one (atEnd) or starting
// at the lower: an access one byte outside it faults.
func guarded(t *testing.T, n int, atEnd bool) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, fence := range [][]byte{mem[:page], mem[page+size:]} {
		if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	data := mem[page:][:8*n]
	if atEnd {
		data = mem[page+size-8*n:][:8*n]
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), n)
}

// TestGemmQuadAVX2StaysInBounds calls the kernel alone, every operand
// fenced by inaccessible pages exactly around what its contract lets it
// touch — A(i,p) for i < 4, p < k4; k4 rows of w4 floats of B; w4
// floats of each C row — so a load or store outside [0, k4) × [0, w4)
// faults, at either end. What it computes must be the Go leaf's bits.
func TestGemmQuadAVX2StaysInBounds(t *testing.T) {
	requireAVX2(t)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, atEnd := range []bool{true, false} {
		for _, s := range []struct{ k4, w4, ldbPad int }{{4, 4, 0}, {8, 12, 0}, {8, 12, 5}, {72, 256, 0}, {216, 252, 4}} {
			for _, transA := range []bool{false, true} {
				q := quadCase{k: s.k4, w: s.w4, transA: transA, ldbPad: s.ldbPad, seed: int64(s.k4 + s.w4)}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%v atEnd=%t: the kernel left its operands: %v", q, atEnd, r)
						}
					}()
					q.checkFenced(t, atEnd)
				}()
			}
		}
	}
}

func (q quadCase) checkFenced(t *testing.T, atEnd bool) {
	sai, sap := q.k, 1
	if q.transA {
		sai, sap = 1, 4
	}
	ldb := q.w + q.ldbPad
	a := guarded(t, 3*sai+(q.k-1)*sap+1, atEnd)
	b := guarded(t, (q.k-1)*ldb+q.w, atEnd)
	var c, want [4][]float64
	for i := range a {
		a[i] = float64(i%7) - 3.25
	}
	for i := range b {
		b[i] = 1 / float64(1+i%11)
	}
	for i := range c {
		c[i] = guarded(t, q.w, atEnd)
		for j := range c[i] {
			c[i][j] = float64(i - j)
		}
		want[i] = slices.Clone(c[i])
	}
	gemmQuadGo(a, b, want[0], want[1], want[2], want[3], sai, sap, 0, q.k, ldb)
	gemmQuadAVX2(&a[0], &b[0], &c[0][0], &c[1][0], &c[2][0], &c[3][0], sai, sap, q.k, ldb, q.w)
	for i := range c {
		if j := sameFloats(c[i], want[i]); j >= 0 {
			t.Fatalf("%v atEnd=%t: c%d[%d] = %v, the Go leaf computes %v", q, atEnd, i, j, c[i][j], want[i][j])
		}
	}
}
