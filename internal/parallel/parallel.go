// Package parallel provides the shared worker pool behind every
// multi-threaded numerical kernel in this repository: sparse
// matrix-vector products, multigrid smoothers, the PCG reduction
// kernels, and the dense GEMM / im2col loops of the neural stage.
//
// The pool keeps a fixed set of persistent goroutines alive for the
// lifetime of the process, so hot solver loops pay no goroutine
// spawn cost per kernel call. Work is handed out through an atomic
// chunk counter (work stealing between the caller and the pool
// workers), which makes nested parallel calls deadlock-free: the
// calling goroutine always participates and can finish the job alone
// if every worker is busy.
//
// # Sizing and knobs
//
//   - Worker count defaults to runtime.GOMAXPROCS(0) and can be
//     overridden with the IRFUSION_WORKERS environment variable or
//     programmatically with New / SetDefault.
//   - Kernels fall back to their exact serial implementation when the
//     problem is smaller than the pool's minimum-work threshold
//     (default DefaultMinWork, overridable with the
//     IRFUSION_PAR_THRESHOLD environment variable or SetMinWork), so
//     tiny grids and coarse multigrid levels never pay dispatch
//     overhead.
//
// # Determinism
//
// Elementwise loops (For) partition work by index and are bitwise
// deterministic at every worker count. Floating-point reductions
// (ReduceSum) use a fixed block size that is independent of the
// worker count, with block partials accumulated in block order, so a
// reduction over n elements returns the same bits at 2, 4, or 8
// workers and across repeated runs. A pool with a single worker (or a
// below-threshold problem) runs the plain serial loop, reproducing
// the pre-parallel seed results bit-for-bit.
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
//	parallel.for.parallel  For/ForMin kernels dispatched to the pool
//	parallel.for.serial    For/ForMin kernels on the serial fallback
//	parallel.do.parallel   Do/ReduceSum kernels dispatched to the pool
//	parallel.do.serial     Do/ReduceSum kernels on the serial fallback
//	parallel.tasks         helper tasks accepted by pool workers
var (
	cForParallel = obs.GlobalCounter("parallel.for.parallel")
	cForSerial   = obs.GlobalCounter("parallel.for.serial")
	cDoParallel  = obs.GlobalCounter("parallel.do.parallel")
	cDoSerial    = obs.GlobalCounter("parallel.do.serial")
	cTasks       = obs.GlobalCounter("parallel.tasks")
)

const (
	// DefaultMinWork is the default minimum problem size (loop
	// iterations for For, vector elements for ReduceSum, stored entries
	// for SpMV) below which kernels run serially: below it no kernel
	// repaid a dispatch's channel hand-off and WaitGroup park on the
	// 2-vCPU reference host (SpMV breaks even near 150k entries, dot and
	// axpy near 400k elements; EXPERIMENTS.md "AMG at its arithmetic cost").
	DefaultMinWork = 131072
	// ReduceBlock is the fixed block size of deterministic
	// reductions. It depends only on the problem size — never on the
	// worker count — which is what makes ReduceSum reproducible
	// across pool configurations.
	ReduceBlock = 4096
	// MaxWorkers caps the pool size; worker counts are inputs from
	// env vars and options, and a runaway value must not fork-bomb
	// the scheduler. Oversubscription beyond NumCPU is allowed (it is
	// useful for scaling tests on small machines).
	MaxWorkers = 1024

	// chunksPerWorker oversubscribes For chunks relative to workers
	// so an unlucky chunk (e.g. dense rows of a CSR matrix) does not
	// leave the rest of the pool idle.
	chunksPerWorker = 4
)

// envWorkers and envMinWork names of the process-wide knobs.
const (
	envWorkers = "IRFUSION_WORKERS"
	envMinWork = "IRFUSION_PAR_THRESHOLD"
)

// Pool is a fixed-size set of persistent worker goroutines. A Pool of
// one worker executes everything on the calling goroutine. The zero
// value is not usable; construct with New.
type Pool struct {
	workers int
	minWork int
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
	p := &Pool{workers: workers, minWork: envInt(envMinWork, DefaultMinWork)}
	if p.minWork < 1 {
		p.minWork = 1
	}
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

// MinWork returns the serial-fallback threshold.
//
//irfusion:hotpath
func (p *Pool) MinWork() int { return p.minWork }

// SerialFor reports whether a For of n iterations would run on the
// calling goroutine. Hot kernels branch on it to run their plain
// serial loop directly — skipping the closure construction a pool
// dispatch needs — which is what keeps their serial steady state
// allocation-free (see the //irfusion:hotpath contract).
//
//irfusion:hotpath
func (p *Pool) SerialFor(n int) bool { return p.serial() || n < p.minWork }

// SerialForMin is SerialFor with an explicit threshold, matching
// ForMin.
//
//irfusion:hotpath
func (p *Pool) SerialForMin(n, minWork int) bool { return p.serial() || n < minWork }

// SetMinWork sets the serial-fallback threshold (clamped to >= 1) and
// returns the pool for chaining. Not safe to call concurrently with
// kernel dispatch; intended for configuration at construction time
// and in tests.
func (p *Pool) SetMinWork(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p.minWork = n
	return p
}

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

// For runs fn over contiguous sub-ranges covering [0, n), in parallel
// when n is at least the pool threshold. Each index is visited
// exactly once; fn must be safe to call concurrently on disjoint
// ranges. Elementwise updates are bitwise identical at every worker
// count.
//
//irfusion:hotpath-allow closures and chunk bookkeeping allocate only on the parallel dispatch path; kernels use SerialFor to skip it entirely when serial
func (p *Pool) For(n int, fn func(lo, hi int)) {
	p.ForMin(n, p.minWork, fn)
}

// ForMin is For with an explicit serial-fallback threshold, for
// kernels whose per-index cost differs wildly from the vector-op
// default (e.g. GEMM rows, where each index is O(k·n) flops).
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

// Do runs fn(0) … fn(k-1), in parallel when the pool has workers to
// spare. Unlike For it applies no size threshold: callers use Do when
// they have already partitioned the work into balanced tasks (e.g.
// nnz-balanced CSR row ranges).
//
//irfusion:hotpath-allow closures allocate only on the parallel dispatch path; serial callers hit the plain loop
func (p *Pool) Do(k int, fn func(i int)) {
	if k <= 0 {
		return
	}
	if p.serial() || k == 1 {
		cDoSerial.Inc()
		for i := 0; i < k; i++ {
			fn(i)
		}
		return
	}
	cDoParallel.Inc()
	var next int64
	runner := func() {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= k {
				return
			}
			fn(i)
		}
	}
	helpers := p.workers - 1
	if helpers > k-1 {
		helpers = k - 1
	}
	p.run(helpers, runner)
}

// ReduceSum computes the sum of fn over [0, n) split into fixed-size
// blocks: fn(lo, hi) must return the partial sum of its range.
// Because the block partitioning depends only on n (see ReduceBlock)
// and the block partials are accumulated in block order, the result
// is bitwise reproducible across runs and across every parallel
// worker count. Below the threshold — or on a single-worker pool —
// it degenerates to the plain serial accumulation fn(0, n),
// preserving the seed's serial results bit-for-bit.
//
//irfusion:hotpath-allow the block-partial buffer allocates only on the parallel dispatch path; kernels use SerialFor to skip it entirely when serial
func (p *Pool) ReduceSum(n int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if p.serial() || n < p.minWork {
		cDoSerial.Inc()
		return fn(0, n)
	}
	blocks := (n + ReduceBlock - 1) / ReduceBlock
	partial := make([]float64, blocks)
	p.Do(blocks, func(b int) {
		lo := b * ReduceBlock
		hi := lo + ReduceBlock
		if hi > n {
			hi = n
		}
		partial[b] = fn(lo, hi)
	})
	sum := 0.0
	for _, v := range partial {
		sum += v
	}
	return sum
}

// defaultPool holds the process-wide pool used by the numerical
// kernels. It is created lazily on first use so that env knobs set by
// a test harness before any kernel call are honoured.
var defaultPool atomic.Pointer[Pool]

// Default returns the process-wide pool, creating it from the
// environment (IRFUSION_WORKERS, IRFUSION_PAR_THRESHOLD, falling back
// to GOMAXPROCS) on first use.
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
