// Package nogofix seeds a nogo violation — a bare goroutine outside
// the packages that own concurrency lifecycles — next to one waived
// with a rationale, which must stay silent.
package nogofix

// Spawn leaks an unmanaged goroutine.
func Spawn(ch chan int) {
	go func() { ch <- 1 }()
}

// Serve runs for the life of the process.
func Serve(ch chan int) {
	//irfusion:go-ok process-lifetime loop, ended by process exit
	go func() { ch <- 2 }()
}
