#include "textflag.h"

// The vector leaf under gemmQuad (gemm.go has the contract). A lane is
// a column j of the panel, and every lane executes the expression the
// Go leaf evaluates for c[j]:
//
//	c = c + a0·v0 + a1·v1 + a2·v2 + a3·v3
//
// as VMULPD then VADDPD, each rounded on its own, left to right, the p
// quads in order. No FMA, no horizontal operation, no reassociation:
// for every element the sequence of roundings is the scalar loop's, so
// the bits are. (Where two NaNs meet, which payload survives follows
// the operand roles chosen here; the compiler's scalar code is not
// consistent about that either, and nothing reads a payload.)
//
// Sixteen broadcast A scalars and the four B vectors do not fit sixteen
// registers next to an accumulator: rows 0 and 1 of A live in Y0-Y7,
// rows 2 and 3 are multiplied from eight 32-byte stack slots.
//
// Registers: AX walks A one pass (four p) at a time, CX is sap in bytes,
// BX the aligned slots; SI DI R8 R9 point one panel width past the four
// B rows of the pass and R10-R13 past the four C rows, so DX counts the
// columns up from -8·w4 to zero. R14, R15 and X15 are not touched.

// BROADCAST4 loads the four A scalars of the row at DX, sap apart, into
// every lane of y0..y3 and leaves DX at the next row.
#define BROADCAST4(y0, y1, y2, y3) \
	VBROADCASTSD (DX), y0; ADDQ CX, DX; \
	VBROADCASTSD (DX), y1; ADDQ CX, DX; \
	VBROADCASTSD (DX), y2; ADDQ CX, DX; \
	VBROADCASTSD (DX), y3; ADDQ 296(SP), DX

// ROW is c = c + a0·v0 + a1·v1 + a2·v2 + a3·v3 for the four columns at
// DX of the C row ending at c, the B vectors v0..v3 in Y8..Y11.
#define ROW(a0, a1, a2, a3, c, acc) \
	VMULPD a0, Y8, acc;  VADDPD (c)(DX*1), acc, acc; \
	VMULPD a1, Y9, Y13;  VADDPD Y13, acc, acc; \
	VMULPD a2, Y10, Y13; VADDPD Y13, acc, acc; \
	VMULPD a3, Y11, Y13; VADDPD Y13, acc, acc; \
	VMOVUPD acc, (c)(DX*1)

// func gemmQuadAVX2(a, b, c0, c1, c2, c3 *float64, sai, sap, k4, ldb, w4 int)
TEXT ·gemmQuadAVX2(SB), NOSPLIT, $304-88
	MOVQ a+0(FP), AX
	MOVQ sap+56(FP), CX
	SHLQ $3, CX
	MOVQ sai+48(FP), DX
	SHLQ $3, DX
	LEAQ (CX)(CX*2), BX
	SUBQ BX, DX
	MOVQ DX, 296(SP)            // sai - 3·sap: from a row's fourth scalar to the next row's first
	MOVQ k4+64(FP), DX
	MOVQ DX, 288(SP)            // p left
	LEAQ 31(SP), BX
	ANDQ $~31, BX
	MOVQ w4+80(FP), DX
	SHLQ $3, DX
	MOVQ ldb+72(FP), R10
	SHLQ $3, R10
	MOVQ b+8(FP), SI
	ADDQ DX, SI
	LEAQ (SI)(R10*1), DI
	LEAQ (DI)(R10*1), R8
	LEAQ (R8)(R10*1), R9
	MOVQ c0+16(FP), R10
	MOVQ c1+24(FP), R11
	MOVQ c2+32(FP), R12
	MOVQ c3+40(FP), R13
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ DX, R12
	ADDQ DX, R13

pass:
	MOVQ AX, DX
	BROADCAST4(Y0, Y1, Y2, Y3)
	BROADCAST4(Y4, Y5, Y6, Y7)
	BROADCAST4(Y8, Y9, Y10, Y11)
	VMOVAPD Y8, 0(BX)
	VMOVAPD Y9, 32(BX)
	VMOVAPD Y10, 64(BX)
	VMOVAPD Y11, 96(BX)
	BROADCAST4(Y8, Y9, Y10, Y11)
	VMOVAPD Y8, 128(BX)
	VMOVAPD Y9, 160(BX)
	VMOVAPD Y10, 192(BX)
	VMOVAPD Y11, 224(BX)
	LEAQ    (AX)(CX*4), AX
	MOVQ    w4+80(FP), DX
	SHLQ    $3, DX
	NEGQ    DX

cols:
	VMOVUPD (SI)(DX*1), Y8
	VMOVUPD (DI)(DX*1), Y9
	VMOVUPD (R8)(DX*1), Y10
	VMOVUPD (R9)(DX*1), Y11
	ROW(Y0, Y1, Y2, Y3, R10, Y12)
	ROW(Y4, Y5, Y6, Y7, R11, Y14)
	ROW(0(BX), 32(BX), 64(BX), 96(BX), R12, Y12)
	ROW(128(BX), 160(BX), 192(BX), 224(BX), R13, Y14)
	ADDQ    $32, DX
	JNZ     cols

	MOVQ ldb+72(FP), DX
	SHLQ $5, DX
	ADDQ DX, SI
	ADDQ DX, DI
	ADDQ DX, R8
	ADDQ DX, R9
	SUBQ $4, 288(SP)
	JNZ  pass
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
