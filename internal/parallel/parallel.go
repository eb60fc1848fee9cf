// Package parallel provides the worker pool behind the row-parallel
// GEMM loops of the neural stage (package nn).
//
// The numerical stage (packages sparse, solver and amg) does not use
// it: every kernel of an AMG-PCG solve is one serial loop. A dispatch
// costs about 170 µs of kernel time on the 2-vCPU reference host, SpMV
// breaks even only past ~150k stored entries, and the largest die the
// service admits (256 µm) has 87 116; a converged solve at 256, 384
// and 512 µm ran no faster on two workers than on one, with the same
// solution bits (EXPERIMENTS.md "One serial numerical core", the
// size-axis table). A future pool proposal for the solver has
// BenchmarkSolverConverged's die=512 row to beat.
//
// The pool keeps a fixed set of persistent goroutines alive for the
// lifetime of the process, so hot loops pay no goroutine spawn cost per
// call. Work is handed out through an atomic chunk counter (work
// stealing between the caller and the pool workers), which makes
// nested parallel calls deadlock-free: the calling goroutine always
// participates and can finish the job alone if every worker is busy.
//
// The worker count defaults to runtime.GOMAXPROCS(0) and can be
// overridden with the IRFUSION_WORKERS environment variable or
// programmatically with New / SetDefault. ForMin partitions work by
// index, so elementwise loops are bitwise deterministic at every worker
// count; below the caller's threshold it runs fn(0, n) on the calling
// goroutine.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"irfusion/internal/obs"
)

// Dispatch counters, permanently enabled (one atomic add per kernel
// dispatch, noise next to any kernel's work). They are the raw data
// behind the worker-pool utilization reported in run manifests and
// the bench_test worker-sweep metrics:
//
//	parallel.for.parallel  ForMin loops dispatched to the pool
//	parallel.for.serial    ForMin loops on the serial fallback
//	parallel.tasks         helper tasks accepted by pool workers
var (
	cForParallel = obs.GlobalCounter("parallel.for.parallel")
	cForSerial   = obs.GlobalCounter("parallel.for.serial")
	cTasks       = obs.GlobalCounter("parallel.tasks")
)

const (
	// MaxWorkers caps the pool size; worker counts are inputs from
	// env vars and options, and a runaway value must not fork-bomb
	// the scheduler. Oversubscription beyond NumCPU is allowed (it is
	// useful for scaling tests on small machines).
	MaxWorkers = 1024

	// chunksPerWorker oversubscribes ForMin chunks relative to workers
	// so an unlucky chunk does not leave the rest of the pool idle.
	chunksPerWorker = 4
)

// envWorkers names the process-wide worker-count knob.
const envWorkers = "IRFUSION_WORKERS"

// Pool is a fixed-size set of persistent worker goroutines. A Pool of
// one worker executes everything on the calling goroutine. The zero
// value is not usable; construct with New.
type Pool struct {
	workers int
	tasks   chan func()
	closed  atomic.Bool
}

// New returns a pool with the given worker count. workers <= 0
// resolves the count from the IRFUSION_WORKERS environment variable,
// falling back to runtime.GOMAXPROCS(0); the result is clamped to
// [1, MaxWorkers]. The calling goroutine counts as one worker, so New
// spawns workers-1 goroutines.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = envInt(envWorkers, runtime.GOMAXPROCS(0))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > MaxWorkers {
		workers = MaxWorkers
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func())
		for i := 0; i < workers-1; i++ {
			go worker(p.tasks)
		}
	}
	return p
}

func worker(tasks chan func()) {
	for task := range tasks {
		task()
	}
}

// Workers returns the pool's worker count (including the caller).
//
//irfusion:hotpath
func (p *Pool) Workers() int { return p.workers }

// SerialForMin reports whether ForMin(n, minWork, …) would run on the
// calling goroutine. Hot kernels branch on it to run their plain
// serial loop directly — skipping the closure construction a pool
// dispatch needs — which is what keeps their serial steady state
// allocation-free (see the //irfusion:hotpath contract).
//
//irfusion:hotpath
func (p *Pool) SerialForMin(n, minWork int) bool { return p.serial() || n < minWork }

// Close releases the pool's worker goroutines. The pool remains
// usable afterwards but runs everything on the calling goroutine.
// Close must not race with in-flight dispatch.
func (p *Pool) Close() {
	if p.tasks != nil && p.closed.CompareAndSwap(false, true) {
		close(p.tasks)
	}
}

// serial reports whether dispatch must run on the calling goroutine.
//
//irfusion:hotpath
func (p *Pool) serial() bool {
	return p.tasks == nil || p.workers <= 1 || p.closed.Load()
}

// run executes runner on up to helpers pool workers plus the calling
// goroutine and returns when every participant has finished. Helper
// submission is non-blocking: when a worker is busy (nested
// parallelism, concurrent callers) the caller simply absorbs that
// worker's share through the chunk counter, so run can never
// deadlock.
func (p *Pool) run(helpers int, runner func()) {
	var wg sync.WaitGroup
submit:
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			runner()
		}
		select {
		case p.tasks <- task:
			cTasks.Inc()
		default:
			wg.Done()
			break submit
		}
	}
	runner()
	wg.Wait()
}

// ForMin runs fn over contiguous sub-ranges covering [0, n), in
// parallel when n is at least minWork, the caller's serial-fallback
// threshold (for GEMM rows, where each index is O(k·n) flops). Each
// index is visited exactly once; fn must be safe to call concurrently
// on disjoint ranges. Elementwise updates are bitwise identical at
// every worker count.
//
//irfusion:hotpath-allow closures and chunk bookkeeping allocate only on the parallel dispatch path; kernels use SerialForMin to skip it entirely when serial
func (p *Pool) ForMin(n, minWork int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.serial() || n < minWork {
		cForSerial.Inc()
		fn(0, n)
		return
	}
	cForParallel.Inc()
	chunks := p.workers * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	var next int64
	runner := func() {
		for {
			c := int(atomic.AddInt64(&next, 1)) - 1
			if c >= chunks {
				return
			}
			lo := c * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	helpers := p.workers - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	p.run(helpers, runner)
}

// defaultPool holds the process-wide pool. It is created lazily on
// first use so that env knobs set by a test harness before any kernel
// call are honoured.
var defaultPool atomic.Pointer[Pool]

// Default returns the process-wide pool, creating it from the
// environment (IRFUSION_WORKERS, falling back to GOMAXPROCS) on first
// use.
//
//irfusion:hotpath-allow one-time pool construction on first use; steady state is a single atomic load
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := New(0)
	if !defaultPool.CompareAndSwap(nil, p) {
		p.Close() // lost the race; discard the extra pool
	}
	return defaultPool.Load()
}

// SetDefault replaces the process-wide pool and returns the previous
// one (never nil). The previous pool is left open because concurrent
// kernels may still hold it; callers that know it is idle may Close
// it. Intended for benchmarks and tests that sweep worker counts.
func SetDefault(p *Pool) *Pool {
	if p == nil {
		p = New(0)
	}
	prev := Default()
	defaultPool.Store(p)
	return prev
}

func envInt(name string, fallback int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return fallback
}
