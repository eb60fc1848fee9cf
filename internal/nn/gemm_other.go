//go:build !amd64

package nn

// useAVX2 is false off amd64: the Go loop of gemmQuad is the only leaf.
var useAVX2 = false

func gemmQuadAVX2(a, b, c0, c1, c2, c3 *float64, sai, sap, k4, ldb, w4 int) {
	panic("nn: no vector GEMM leaf on this architecture")
}
