// Package directivefix seeds malformed directives: waivers without a
// rationale, which are indistinguishable from a silenced check.
package directivefix

// Bad waives the comparison but gives no reason.
func Bad(x float64) bool {
	return x == 0 //irfusion:exact
}

// Spawn waives its goroutine but gives no reason.
func Spawn(ch chan int) {
	//irfusion:go-ok
	go func() { ch <- 1 }()
}
