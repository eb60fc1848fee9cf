// Package locksafefix seeds locksafe violations: a lock leaked on an
// early return, one leaked on a return taken before its deferred
// unlock is registered, locks held across blocking operations, and a
// labeled break that exits a loop with the lock still held.
package locksafefix

import (
	"errors"
	"sync"
)

var errFail = errors.New("fail")

type Box struct {
	mu sync.Mutex
	wg sync.WaitGroup
	n  int
}

// LeakOnError leaks b.mu on the error path.
func (b *Box) LeakOnError(fail bool) error {
	b.mu.Lock()
	if fail {
		return errFail
	}
	b.n++
	b.mu.Unlock()
	return nil
}

// DeferAfterReturn registers its unlock after the early return, so
// that return leaves b.mu held (the deferred unlock covers only the
// exits after it).
func (b *Box) DeferAfterReturn(closed bool) error {
	b.mu.Lock()
	if closed {
		return errFail
	}
	defer b.mu.Unlock()
	b.n++
	return nil
}

// SendUnderLock holds b.mu across a channel send.
func (b *Box) SendUnderLock(ch chan int) {
	b.mu.Lock()
	ch <- b.n
	b.mu.Unlock()
}

// WaitUnderLock holds b.mu across a WaitGroup wait.
func (b *Box) WaitUnderLock() {
	b.mu.Lock()
	b.wg.Wait()
	b.mu.Unlock()
}

// LoopLeak exercises the labeled-break CFG edges: breaking out of the
// outer loop skips the unlock.
func (b *Box) LoopLeak(xs []int) {
outer:
	for range xs {
		b.mu.Lock()
		for _, x := range xs {
			if x < 0 {
				break outer
			}
		}
		b.mu.Unlock()
	}
}
