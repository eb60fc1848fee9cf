// Package locksafeclean seeds the sanctioned locking patterns the
// locksafe rule must accept: deferred unlocks (registered before or
// after the Lock, with an early return ahead of both), per-branch
// unlocks, a non-blocking select and a close under a lock, and an
// annotated hold across a receive.
package locksafeclean

import "sync"

type Store struct {
	mu sync.RWMutex
	q  chan int
	m  map[string]int
}

// Deferred is the canonical pattern, with the read-side lock.
func (s *Store) Deferred(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[k]
}

// DeferFirst registers the unlock before taking the lock.
func (s *Store) DeferFirst(k string) int {
	defer s.mu.Unlock()
	s.mu.Lock()
	return s.m[k]
}

// ReturnBeforeLock: the early exit holds nothing, and every exit after
// the Lock is covered by the defer.
func (s *Store) ReturnBeforeLock(k string, skip bool) {
	if skip {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k]++
}

// BothPaths unlocks on each branch explicitly.
func (s *Store) BothPaths(k string, v int, ok bool) {
	s.mu.Lock()
	if ok {
		s.m[k] = v
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// NonBlockingSend: a select with a default case never blocks, so
// holding the lock across it is fine (the serve.submit pattern).
func (s *Store) NonBlockingSend(v int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.q <- v:
		return true
	default:
		return false
	}
}

// CloseUnderLock: close is not a blocking operation.
func (s *Store) CloseUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.q)
}

// Annotated documents a reviewed hold across a receive.
func (s *Store) Annotated() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	//irfusion:lock-ok fixture: the queue is drained by a dedicated goroutine, the receive cannot deadlock against this mutex
	return <-s.q
}
