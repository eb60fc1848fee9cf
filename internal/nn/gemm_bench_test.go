package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// servedGemmShapes are the distinct (m, k, n) of the 58 GEMM calls one
// nil-tape forward pass of the served model issues (irfusion, Base 8,
// Depth 3, 14 feature channels, 64×64 raster), with their call counts;
// collected once by printing every call's shape. m is the convolution's
// output channels, k its input channels × taps, n the output pixels;
// the last six are the CBAM channel-attention Linear layers (A·Bᵀ).
var servedGemmShapes = []struct{ m, k, n, calls int }{
	{1, 8, 4096, 2}, {1, 16, 1024, 1}, {1, 32, 256, 1}, {1, 98, 256, 1}, {1, 98, 1024, 1}, {1, 98, 4096, 1},
	{2, 14, 4096, 4}, {2, 18, 4096, 3}, {4, 8, 1024, 4}, {4, 28, 1024, 4},
	{8, 8, 4096, 1}, {8, 16, 256, 4}, {8, 16, 4096, 1}, {8, 24, 256, 2}, {8, 72, 4096, 1}, {8, 216, 4096, 1},
	{16, 16, 1024, 1}, {16, 32, 64, 4}, {16, 32, 1024, 1}, {16, 48, 64, 2}, {16, 144, 1024, 1}, {16, 432, 1024, 1},
	{32, 32, 256, 1}, {32, 64, 256, 1}, {32, 288, 256, 1}, {32, 864, 256, 1},
	{1, 2, 8, 2}, {1, 4, 16, 2}, {1, 8, 2, 2}, {1, 8, 32, 2}, {1, 16, 4, 2}, {1, 32, 8, 2},
}

// BenchmarkGemmServedShapes times each variant, gemm again on the Go
// leaf where the process runs the vector leaf, and the in-order
// reference, on every served shape. GF/s is 2·m·k·n over the time;
// MB/op is computed, not measured: A, B and C touched once each.
func BenchmarkGemmServedShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range servedGemmShapes {
		m, k, n := s.m, s.k, s.n
		x, y, c := normalSlice(rng, m*k), normalSlice(rng, k*n), make([]float64, m*n)
		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GF/s")
				b.ReportMetric(8*float64(m*k+k*n+m*n)/1e6, "MB/op")
			})
		}
		for _, v := range gemmVariants {
			run(v.name, func() { v.run(x, y, c, m, k, n, false) })
		}
		if useAVX2 {
			// The same call on the Go leaf: gemm over gemm/go is what
			// the vector leaf buys on this shape.
			useAVX2 = false
			run("gemm/go", func() { gemm(x, y, c, m, k, n, false) })
			useAVX2 = true
		}
		run("reference", func() { gemmRef(false, x, y, c, k, 1, m, k, n, false) })
	}
}
