package plan

import (
	"context"
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
// produced them.
const (
	RungAMG     = "numerical.amg"
	RungAMGWarm = "numerical.amg.warm"
	RungSSOR    = "numerical.ssor"
	RungRough   = "rough"
)

// Rungs is the whole solve policy of the numerical analyzer: the
// ordered rung names for a request with the given iteration budget
// (<= 0 converges) and preconditioner, with or without an artifact
// cache addressing the design. Every list ends in exactly one cold
// rung: the rung census (census_test.go) finds no admitted deck that
// a cold rung fails, so nothing stands behind it, and a request whose
// cold rung fails exhausts the ladder.
//
// Budgeted solves run cold — their per-iteration progress is the
// quantity under study in the Fig-7 trade-off, so warm-starting would
// corrupt the comparison — on the SSOR rung unless the full AMG
// K-cycle was asked for. Converged solves try the cheapest answer
// first: a warm start off the closest cached solve — the design itself
// at delta 0, an ECO neighbour otherwise — only if its lookup finds
// one, then cold AMG-PCG.
func Rungs(iters int, precond string, cached bool) []string {
	if iters > 0 {
		if precond != "amg" {
			return []string{RungSSOR}
		}
		return []string{RungAMG}
	}
	var l []string
	if cached {
		l = append(l, RungAMGWarm)
	}
	return append(l, RungAMG)
}

// The fixed rung lists of the other two consumers: dataset's
// must-converge label solve and the fused pipeline's rough solve, one
// cold rung each.
var (
	goldenRungs     = []string{RungAMG}
	fusedRoughRungs = []string{RungRough}
)

// cacheStage is the stage name on every cache event of a solve: only
// the numerical analyzer's converged solves consult the artifact cache.
const cacheStage = "numerical.solve"

// Golden labels converge to goldenTol within goldenMaxIter iterations.
const (
	goldenTol     = 1e-10
	goldenMaxIter = 2000
)

// solveState is everything the rungs of one solve share: the system,
// the iterate they fill, and what the serving rung leaves behind for
// the caller and the artifact cache.
type solveState struct {
	sys  *circuit.System
	x    []float64
	res  solver.Result
	hier *amg.Hierarchy // built for exactly sys.G by a rung of this solve; nil otherwise

	opts         solver.Options // PCG configuration; an empty Label takes the rung name
	mustConverge bool           // a cold AMG solve that stops short fails its rung

	cache *cache.Cache // nil: every cache rung declines
	fp    string       // design fingerprint addressing the cache
	rec   *obs.Recorder

	donor *cache.SystemArtifact // found by warmReady
	delta float64               // matrix delta to a warm-start donor
}

// newState prepares a solve of sys into x: to convergence, or budgeted
// to exactly iters PCG iterations.
func newState(ctx context.Context, sys *circuit.System, x []float64, iters int, converge bool) *solveState {
	opts := solver.RoughOptions(iters)
	if converge {
		opts = solver.DefaultOptions()
	}
	return &solveState{sys: sys, x: x, opts: opts, rec: obs.FromContext(ctx)}
}

// rung is one way of filling st.x. ready (optional) is the rung's cache
// lookup: it reports whether there is anything for the rung to work
// from.
type rung struct {
	ready func(ctx context.Context, st *solveState) bool
	run   func(ctx context.Context, st *solveState, name string) error
}

// rungTable is every backend there is. The budgeted rough solve is the
// SSOR rung under the fusion pipeline's label — which is what keeps the
// solve that builds training samples and the one that serves requests
// the same code.
var rungTable = map[string]rung{
	RungAMGWarm: {ready: warmReady, run: warm},
	RungAMG:     {run: amgCold},
	RungSSOR:    {run: ssor},
	RungRough:   {run: ssor},
}

// run serves the solve from the named rungs. Lookups come first, in
// list order: a rung whose ready hook finds nothing is left off the
// ladder — no attempt in the trail, no shift of the serving rung's
// index, because missing the cache is not a degradation. The rungs
// that remain run on the degradation ladder. When one converges for an
// addressed design having built a hierarchy for exactly this matrix —
// a cold solve — the solve goes to the artifact cache as a warm-start
// donor; a warm-started solve has no hierarchy of its own to give and
// stores nothing, so it never pushes its donor out of the neighbour
// search.
func (st *solveState) run(ctx context.Context, component string, names []string) error {
	var ladder []ladderRung
	for _, name := range names {
		r := rungTable[name]
		if r.ready != nil && !r.ready(ctx, st) {
			continue
		}
		ladder = append(ladder, ladderRung{name: name, run: func(ctx context.Context) error { return r.run(ctx, st, name) }})
	}
	if err := runLadder(ctx, component, ladder); err != nil {
		return err
	}
	if st.cache != nil && st.res.Converged && st.hier != nil {
		cache.StoreSystem(ctx, st.cache, cacheStage, &cache.SystemArtifact{
			Fingerprint: st.fp, N: st.sys.N(), G: st.sys.G, I: st.sys.I,
			Golden: append([]float64(nil), st.x...), Hier: st.hier,
		})
	}
	return nil
}

func (st *solveState) cacheEvent(outcome, key string, delta float64) {
	st.rec.RecordCacheEvent(obs.CacheEvent{
		Stage: cacheStage, Outcome: outcome, Key: cache.ShortKey(key), Delta: delta,
	})
}

// pcg runs flexible PCG from whatever guess x holds, labeled with the
// rung name so the manifest's convergence trace says which backend
// ran.
func (st *solveState) pcg(ctx context.Context, name string, pre solver.Preconditioner, mustConverge bool) error {
	opts := st.opts
	if opts.Label == "" {
		opts.Label = name
	}
	r, err := solver.PCGCtx(ctx, st.sys.G, st.x, st.sys.I, pre, opts)
	if err != nil {
		return err
	}
	if mustConverge && !r.Converged {
		return fmt.Errorf("plan: %s solve stalled at %g", name, r.Residual)
	}
	st.res = r
	return nil
}

// buildAMG builds the hierarchy for exactly sys.G and publishes it on
// the state, so the artifact store may keep it.
func (st *solveState) buildAMG(ctx context.Context) (*amg.Hierarchy, error) {
	h, err := amg.BuildCtx(ctx, st.sys.G, amg.DefaultOptions())
	if err == nil {
		st.hier = h
	}
	return h, err
}

// warmReady looks for the closest cached solve within
// cache.DefaultWarmDelta: a repeat of a cached design finds itself at
// delta 0, an ECO edit its neighbour. A search cut short by
// cancellation reads as "no donor"; the next rung's first context check
// ends the ladder.
func warmReady(ctx context.Context, st *solveState) bool {
	nb, delta, err := cache.FindWarmStart(ctx, st.cache, st.sys.G, 0)
	if err != nil || nb == nil {
		return false
	}
	st.donor, st.delta = nb, delta
	return true
}

// warm continues from the donor's golden solution, preconditioned by
// the donor's cloned hierarchy — skipping AMG setup, the dominant
// cost. At delta 0 the golden solution already meets the tolerance, so
// PCG stops at iteration 0 and hands it back unchanged. The rung must
// converge, so a stale donor costs iterations, never the answer; a
// guess or foreign preconditioner that does not carry the solve home
// fails the rung and the ladder goes cold. The "warm" cache event is
// recorded only once the solve converged, so a failure shows in the
// degradation trail alone.
func warm(ctx context.Context, st *solveState, name string) error {
	copy(st.x, st.donor.Golden)
	if err := st.pcg(ctx, name, st.donor.Hier.Clone(), true); err != nil {
		return err
	}
	st.cacheEvent(obs.CacheWarm, st.donor.Fingerprint, st.delta)
	return nil
}

func amgCold(ctx context.Context, st *solveState, name string) error {
	h, err := st.buildAMG(ctx)
	if err != nil {
		return err
	}
	sparse.Zero(st.x)
	return st.pcg(ctx, name, h, st.mustConverge)
}

func ssor(ctx context.Context, st *solveState, name string) error {
	sparse.Zero(st.x)
	return st.pcg(ctx, name, solver.NewSSOR(st.sys.G, 2), false)
}

// Solve is a numerical analysis request as the solve path sees it.
type Solve struct {
	// Iters > 0 is a budgeted rough solve of exactly that many PCG
	// iterations; <= 0 solves to convergence.
	Iters int
	// Precond ("amg" or "ssor") picks the rung of a budgeted solve.
	Precond string
	// Fingerprint yields the design's content address
	// (cache.DesignFingerprint). It is called only for a solve the
	// artifact cache applies to — converged, with a cache resolved from
	// ctx — which the cache then warm-starts and keeps; every other
	// solve runs cold and never pays for the hash.
	Fingerprint func() string
}

// Numerical solves sys into x on the ladder chosen by Rungs and returns
// the serving rung's result. When every rung fails the error wraps
// ErrLadderExhausted.
func Numerical(ctx context.Context, sys *circuit.System, x []float64, s Solve) (solver.Result, error) {
	st := newState(ctx, sys, x, s.Iters, s.Iters <= 0)
	if cc := cache.FromContext(ctx); cc != nil && s.Iters <= 0 {
		st.cache, st.fp = cc, s.Fingerprint()
	}
	err := st.run(ctx, "core.numerical", Rungs(s.Iters, s.Precond, st.cache != nil))
	return st.res, err
}

// Golden solves sys into x to label accuracy for the dataset builder:
// one cold AMG-PCG solve from zero, on a one-rung ladder, and nothing
// rougher — a label that did not converge is an error. It never consults
// the artifact cache.
func Golden(ctx context.Context, sys *circuit.System, x []float64) error {
	st := newState(ctx, sys, x, 0, true)
	st.opts = solver.Options{Tol: goldenTol, MaxIter: goldenMaxIter, Flexible: true, Record: true, Label: "golden"}
	st.mustConverge = true
	return st.run(ctx, "dataset.golden", goldenRungs)
}

// Rough fills x with the fusion pipeline's numerical input — iters
// SSOR-PCG iterations from a zero guess (paper §III) — as the bare
// rough rung: no ladder, no degradation record. Rough solves always run
// cold; a warm-started one would shift the model's input distribution.
func Rough(ctx context.Context, sys *circuit.System, x []float64, iters int) error {
	return ssor(ctx, newState(ctx, sys, x, iters, false), RungRough)
}

// RoughLadder is Rough on the fused pipeline's one-rung ladder: the
// same solve, with a core.fused.rough record in the manifest. A rough
// solve that fails exhausts the ladder, and the error wraps
// ErrLadderExhausted.
func RoughLadder(ctx context.Context, sys *circuit.System, x []float64, iters int) error {
	return newState(ctx, sys, x, iters, false).run(ctx, "core.fused.rough", fusedRoughRungs)
}
