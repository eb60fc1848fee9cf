// Package plan is the one solve path of the repository. Three backends
// fill a linear system's iterate: a warm start off a cached donor, a
// cold AMG-PCG solve and an SSOR-PCG solve. core's analyzers and the
// dataset builder call the entry points below, so the rough solve that
// builds training samples and the one that serves requests are the same
// code.
//
// Every solve but the bare Rough leaves a Degradation record in the run
// manifest saying how the answer was produced. Only a converged solve
// with a cached donor has a choice: it tries the warm start, then
// solves cold. The rung census (census_test.go) finds no admitted deck
// that a cold solve fails, so nothing stands behind it, and its failure
// exhausts the ladder — a 503 carrying the trail when served. No
// backend is tried twice: each is a deterministic function of its input
// that resets its iterate first, so a retry would repeat it bit for bit.
package plan

import (
	"context"
	"errors"
	"fmt"

	"irfusion/internal/amg"
	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/obs"
	"irfusion/internal/solver"
	"irfusion/internal/sparse"
)

// Rung names. They double as the obs solve labels of the numerical
// stage, so a manifest's convergence traces say which backend
// produced them, and as the labels fault rules match.
const (
	RungAMG     = "numerical.amg"
	RungAMGWarm = "numerical.amg.warm"
	RungSSOR    = "numerical.ssor"
	RungRough   = "rough"
)

// ErrLadderExhausted is returned when every rung of a degradation
// ladder failed. The serving layer maps it to a structured 503.
var ErrLadderExhausted = errors.New("plan: degradation ladder exhausted")

// cacheStage is the stage name on every cache event of a solve: only
// the numerical analyzer's converged solves consult the artifact cache.
const cacheStage = "numerical.solve"

// Golden labels converge to goldenTol within goldenMaxIter iterations.
const (
	goldenTol     = 1e-10
	goldenMaxIter = 2000
)

// aborts reports whether a rung failure ends the whole solve:
// cancellation and deadlines are the caller's doing, and no other
// backend can help. Every other failure — breakdown, an indefinite
// operator, AMG setup — falls from the warm start to the cold solve.
func aborts(err error) bool {
	return errors.Is(err, solver.ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// trail is one solve's degradation record, built as its attempts
// happen and recorded on the context's recorder once the solve is over,
// clean first-rung successes included.
type trail struct {
	rec *obs.Recorder
	deg obs.Degradation
}

func newTrail(ctx context.Context, component string) *trail {
	return &trail{rec: obs.FromContext(ctx), deg: obs.Degradation{Component: component}}
}

// fell records a failed attempt the solve falls past.
func (t *trail) fell(rung string, err error) {
	t.deg.Attempts = append(t.deg.Attempts, obs.DegradationAttempt{Rung: rung, Error: err.Error()})
}

// end records the attempt that ends the solve and returns the solve's
// error. A nil err means rung served. Otherwise the record is
// exhausted: a cancellation or deadline comes back as it is (callers
// and serve already classify it), and any other failure wraps
// ErrLadderExhausted and the rung's error.
func (t *trail) end(rung string, err error) error {
	if err == nil {
		t.deg.Attempts = append(t.deg.Attempts, obs.DegradationAttempt{Rung: rung})
		t.deg.Rung, t.deg.RungIndex = rung, len(t.deg.Attempts)-1
		t.rec.RecordDegradation(t.deg)
		return nil
	}
	t.fell(rung, err)
	t.deg.Exhausted = true
	t.rec.RecordDegradation(t.deg)
	if aborts(err) {
		return err
	}
	return fmt.Errorf("%w: %s: last error: %w", ErrLadderExhausted, t.deg.Component, err)
}

// pcg runs flexible PCG from whatever guess x holds. An empty
// opts.Label takes the rung name, so the manifest's convergence trace
// says which backend ran. With mustConverge, a solve that stops short
// fails its rung. A failed rung hands back no result.
func pcg(ctx context.Context, sys *circuit.System, x []float64, pre solver.Preconditioner, opts solver.Options, rung string, mustConverge bool) (solver.Result, error) {
	if opts.Label == "" {
		opts.Label = rung
	}
	r, err := solver.PCGCtx(ctx, sys.G, x, sys.I, pre, opts)
	if err != nil {
		return solver.Result{}, err
	}
	if mustConverge && !r.Converged {
		return solver.Result{}, fmt.Errorf("plan: %s solve stalled at %g", rung, r.Residual)
	}
	return r, nil
}

// cold solves sys into x from zero, preconditioned by an AMG hierarchy
// built for exactly sys.G, and hands back the hierarchy so a converged
// solve may go to the artifact cache.
func cold(ctx context.Context, sys *circuit.System, x []float64, opts solver.Options, mustConverge bool) (solver.Result, *amg.Hierarchy, error) {
	h, err := amg.BuildCtx(ctx, sys.G, amg.DefaultOptions())
	if err != nil {
		return solver.Result{}, nil, err
	}
	sparse.Zero(x)
	r, err := pcg(ctx, sys, x, h, opts, RungAMG, mustConverge)
	return r, h, err
}

// ssor runs iters SSOR-PCG iterations from zero under the rung's label.
func ssor(ctx context.Context, sys *circuit.System, x []float64, iters int, rung string) (solver.Result, error) {
	sparse.Zero(x)
	return pcg(ctx, sys, x, solver.NewSSOR(sys.G, 2), solver.RoughOptions(iters), rung, false)
}

// warm continues from the donor's golden solution, preconditioned by
// the donor's cloned hierarchy — skipping AMG setup, the dominant
// cost. At delta 0 the golden solution already meets the tolerance, so
// PCG stops at iteration 0 and hands it back unchanged. The rung must
// converge, so a stale donor costs iterations, never the answer. The
// "warm" cache event is recorded only once the solve converged, so a
// failure shows in the degradation trail alone.
func warm(ctx context.Context, sys *circuit.System, x []float64, donor *cache.SystemArtifact, delta float64) (solver.Result, error) {
	copy(x, donor.Golden)
	r, err := pcg(ctx, sys, x, donor.Hier.Clone(), solver.DefaultOptions(), RungAMGWarm, true)
	if err == nil {
		obs.FromContext(ctx).RecordCacheEvent(obs.CacheEvent{
			Stage: cacheStage, Outcome: obs.CacheWarm, Key: cache.ShortKey(donor.Fingerprint), Delta: delta,
		})
	}
	return r, err
}

// Solve is a numerical analysis request as the solve path sees it.
type Solve struct {
	// Iters > 0 is a budgeted rough solve of exactly that many PCG
	// iterations; <= 0 solves to convergence.
	Iters int
	// Precond ("amg" or "ssor") picks the backend of a budgeted solve.
	Precond string
	// Fingerprint yields the design's content address
	// (cache.DesignFingerprint). It is called only for a solve the
	// artifact cache applies to — converged, with a cache resolved from
	// ctx — which the cache then warm-starts and keeps; every other
	// solve runs cold and never pays for the hash.
	Fingerprint func() string
}

// Numerical solves sys into x and returns the serving rung's result.
//
// A budgeted solve runs cold — its per-iteration progress is the
// quantity under study in the Fig-7 trade-off, so warm-starting would
// corrupt the comparison — on SSOR unless the full AMG K-cycle was
// asked for. A converged solve with an artifact cache bound to ctx
// first looks for the closest cached solve within
// cache.DefaultWarmDelta: a repeat of a cached design finds itself at
// delta 0, an ECO edit its neighbour. A donor found is tried warm; a
// warm start that fails without aborting falls to the cold AMG-PCG
// solve. A lookup that finds nothing, or is cut short by cancellation,
// leaves no attempt in the trail: missing the cache is not a
// degradation, and the cold solve's first context check ends the solve.
//
// A converged cold solve of a cached design is stored as a donor; a
// warm-started one has no hierarchy to give and stores nothing, so it
// never pushes its donor out of the neighbour search. When the cold
// solve fails the error wraps ErrLadderExhausted.
func Numerical(ctx context.Context, sys *circuit.System, x []float64, s Solve) (solver.Result, error) {
	t := newTrail(ctx, "core.numerical")
	if s.Iters > 0 {
		if s.Precond != "amg" {
			r, err := ssor(ctx, sys, x, s.Iters, RungSSOR)
			return r, t.end(RungSSOR, err)
		}
		r, _, err := cold(ctx, sys, x, solver.RoughOptions(s.Iters), false)
		return r, t.end(RungAMG, err)
	}
	cc := cache.FromContext(ctx)
	var fp string
	if cc != nil {
		fp = s.Fingerprint()
		if donor, delta, err := cache.FindWarmStart(ctx, cc, sys.G, 0); err == nil && donor != nil {
			r, err := warm(ctx, sys, x, donor, delta)
			if err == nil || aborts(err) {
				return r, t.end(RungAMGWarm, err)
			}
			t.fell(RungAMGWarm, err)
		}
	}
	r, h, err := cold(ctx, sys, x, solver.DefaultOptions(), false)
	if err := t.end(RungAMG, err); err != nil {
		return r, err
	}
	if cc != nil && r.Converged {
		cache.StoreSystem(ctx, cc, cacheStage, &cache.SystemArtifact{
			Fingerprint: fp, N: sys.N(), G: sys.G, I: sys.I,
			Golden: append([]float64(nil), x...), Hier: h,
		})
	}
	return r, nil
}

// Golden solves sys into x to label accuracy for the dataset builder:
// one cold AMG-PCG solve from zero, and nothing rougher — a label that
// did not converge is an error. It never consults the artifact cache.
func Golden(ctx context.Context, sys *circuit.System, x []float64) error {
	opts := solver.Options{Tol: goldenTol, MaxIter: goldenMaxIter, Flexible: true, Record: true, Label: "golden"}
	_, _, err := cold(ctx, sys, x, opts, true)
	return newTrail(ctx, "dataset.golden").end(RungAMG, err)
}

// Rough fills x with the fusion pipeline's numerical input — iters
// SSOR-PCG iterations from a zero guess (paper §III) — with no
// degradation record. Rough solves always run cold; a warm-started one
// would shift the model's input distribution.
func Rough(ctx context.Context, sys *circuit.System, x []float64, iters int) error {
	_, err := ssor(ctx, sys, x, iters, RungRough)
	return err
}

// RoughLadder is Rough with a core.fused.rough record in the manifest.
// A rough solve that fails exhausts the ladder, and the error wraps
// ErrLadderExhausted.
func RoughLadder(ctx context.Context, sys *circuit.System, x []float64, iters int) error {
	return newTrail(ctx, "core.fused.rough").end(RungRough, Rough(ctx, sys, x, iters))
}
