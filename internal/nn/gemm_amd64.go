package nn

// gemmQuadAVX2 is the vector leaf of gemmQuad (gemm_amd64.s): it adds
// the first k4 products into the first w4 columns of the four panel
// rows, k4 and w4 positive multiples of four. It reads A(i,p) at
// a[i*sai+p*sap] for i < 4, p < k4 and b[p*ldb+j] for j < w4, and
// touches nothing else.
//
//irfusion:hotpath
//go:noescape
func gemmQuadAVX2(a, b, c0, c1, c2, c3 *float64, sai, sap, k4, ldb, w4 int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useAVX2 is decided once, from what the processor and the operating
// system report: AVX2 itself (CPUID.7:EBX bit 5), and OSXSAVE + AVX
// (CPUID.1:ECX bits 27, 28) with the XMM and YMM state enabled in XCR0
// (bits 1, 2), without which the registers are not preserved across a
// context switch.
var useAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()
