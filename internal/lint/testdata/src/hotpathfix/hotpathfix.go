// Package hotpathfix seeds hotpath violations for the linter
// self-test: an allocation, a call out of the hotpath call graph, a
// closure, a call through a function value, and a closure handed to a
// waived callee.
package hotpathfix

// helper is deliberately unannotated.
func helper(x float64) float64 { return x * 2 }

// Sum is annotated hotpath but breaks every part of the contract.
//
//irfusion:hotpath
func Sum(xs []float64) float64 {
	buf := make([]float64, len(xs))
	total := 0.0
	for i, x := range xs {
		buf[i] = helper(x)
		total += buf[i]
	}
	f := func() float64 { return total }
	return f()
}

// forEach is waived; its waiver covers its own body, not the closures
// its callers build.
//
//irfusion:hotpath-allow the fixture's waived callee
func forEach(n int, fn func(lo, hi int)) { fn(0, n) }

// Scale builds a closure to hand to a waived callee: still a finding.
//
//irfusion:hotpath
func Scale(xs []float64) {
	forEach(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}
