package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkerCountClamping(t *testing.T) {
	t.Setenv(envWorkers, "")
	auto := New(0)
	defer auto.Close()
	if got, want := auto.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
	neg := New(-3)
	defer neg.Close()
	if neg.Workers() != auto.Workers() {
		t.Errorf("New(-3).Workers() = %d, want %d", neg.Workers(), auto.Workers())
	}
	if got := New(1).Workers(); got != 1 {
		t.Errorf("New(1).Workers() = %d, want 1", got)
	}
	// Oversubscription past NumCPU is allowed (needed for scaling
	// tests on small machines) but capped at MaxWorkers.
	over := New(runtime.NumCPU() + 7)
	defer over.Close()
	if got, want := over.Workers(), runtime.NumCPU()+7; got != want {
		t.Errorf("New(NumCPU+7).Workers() = %d, want %d", got, want)
	}
	huge := New(1 << 20)
	defer huge.Close()
	if got := huge.Workers(); got != MaxWorkers {
		t.Errorf("New(1<<20).Workers() = %d, want cap %d", got, MaxWorkers)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 10_000
	visits := make([]int32, n)
	p.ForMin(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestEnvKnobs(t *testing.T) {
	t.Setenv(envWorkers, "5")
	p := New(0)
	defer p.Close()
	if p.Workers() != 5 {
		t.Errorf("Workers() = %d with %s=5", p.Workers(), envWorkers)
	}
	t.Setenv(envWorkers, "not-a-number")
	q := New(0)
	defer q.Close()
	if got, want := q.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d with garbage env, want %d", got, want)
	}
}

func TestForSerialFallbackBelowThreshold(t *testing.T) {
	p := New(8)
	defer p.Close()
	var calls int32
	p.ForMin(999, 1000, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if lo != 0 || hi != 999 {
			t.Errorf("serial fallback got range [%d,%d), want [0,999)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("below-threshold ForMin made %d calls, want 1 serial call", calls)
	}
	if !p.SerialForMin(999, 1000) || p.SerialForMin(1000, 1000) {
		t.Error("SerialForMin disagrees with ForMin's threshold")
	}
	// At the threshold the parallel path engages and splits the range.
	calls = 0
	p.ForMin(1000, 1000, func(lo, hi int) { atomic.AddInt32(&calls, 1) })
	if calls < 2 {
		t.Errorf("at-threshold ForMin made %d calls, want a parallel split", calls)
	}
}

func TestPoolReuseAcrossCalls(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 4096
	x := make([]float64, n)
	for round := 0; round < 50; round++ {
		p.ForMin(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i]++
			}
		})
	}
	for i, v := range x {
		if v != 50 {
			t.Fatalf("x[%d] = %v after 50 rounds, want 50", i, v)
		}
	}
	// Goroutine count must not grow with use: workers are persistent.
	before := runtime.NumGoroutine()
	for round := 0; round < 100; round++ {
		p.ForMin(n, 1, func(lo, hi int) {})
	}
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Errorf("goroutines grew from %d to %d across reused dispatches", before, after)
	}
}

func TestConcurrentCallersShareOnePool(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForMin(1000, 1, func(lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
		}()
	}
	wg.Wait()
	if total != 8*1000 {
		t.Errorf("concurrent callers covered %d indices, want %d", total, 8*1000)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total int64
	p.ForMin(64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ForMin(32, 1, func(l, h int) {
				atomic.AddInt64(&total, int64(h-l))
			})
		}
	})
	if total != 64*32 {
		t.Errorf("nested For covered %d, want %d", total, 64*32)
	}
}

func TestCloseFallsBackToSerial(t *testing.T) {
	p := New(4)
	p.Close()
	var calls int32
	p.ForMin(5000, 1, func(lo, hi int) { atomic.AddInt32(&calls, 1) })
	if calls != 1 {
		t.Errorf("closed pool made %d calls, want 1 serial call", calls)
	}
}

func TestDefaultPoolSwap(t *testing.T) {
	orig := Default()
	if orig == nil {
		t.Fatal("Default() returned nil")
	}
	if prev := SetDefault(New(3)); prev != orig {
		t.Error("SetDefault did not return the previous pool")
	}
	if got := Default().Workers(); got != 3 {
		t.Errorf("Default().Workers() = %d after SetDefault(New(3))", got)
	}
	SetDefault(orig)
	if Default() != orig {
		t.Error("SetDefault did not restore the original pool")
	}
}
