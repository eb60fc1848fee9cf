// Package amg implements aggregation-based algebraic multigrid in the
// style used by the PowerRush power-grid simulator: a setup stage that
// recursively coarsens the conductance matrix with (double) pairwise
// aggregation, and cycling strategies — V-cycle and the
// Krylov-accelerated K-cycle — that serve as a preconditioner for
// conjugate gradients (see package solver).
//
// The operators produced by modified nodal analysis of a resistive
// power grid are symmetric M-matrices (positive diagonal, non-positive
// off-diagonal), the class for which pairwise aggregation has
// convergence guarantees.
package amg

import (
	"context"
	"errors"
	"fmt"
	"time"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/parallel"
	"irfusion/internal/sparse"
)

// Cycle selects the multigrid cycling strategy.
type Cycle int

const (
	// VCycle visits each coarse level once per cycle.
	VCycle Cycle = iota
	// KCycle accelerates the coarse-level solve with (at most) two
	// steps of flexible conjugate gradients, as proposed by Notay.
	// This is the cycle PowerRush uses.
	KCycle
)

func (c Cycle) String() string {
	switch c {
	case VCycle:
		return "V"
	case KCycle:
		return "K"
	default:
		return fmt.Sprintf("Cycle(%d)", int(c))
	}
}

// Options configures hierarchy construction and cycling.
type Options struct {
	// Strength is the strong-connection threshold β: the entry a_ij is
	// a strong connection of i when -a_ij ≥ β·max_k(-a_ik).
	Strength float64
	// MaxCoarse is the size at which coarsening stops and a dense
	// Cholesky factorization solves the coarsest level exactly.
	MaxCoarse int
	// MaxLevels caps the hierarchy depth (0 means unlimited).
	MaxLevels int
	// PreSmooth and PostSmooth are the numbers of Gauss-Seidel sweeps
	// before (forward) and after (backward) coarse-grid correction;
	// the mirrored order keeps the cycle symmetric.
	PreSmooth, PostSmooth int
	// Cycle selects V or K cycling.
	Cycle Cycle
	// KTolerance is the K-cycle truncation threshold: the second FCG
	// step is skipped when the first already reduced the coarse
	// residual below KTolerance times its input norm.
	KTolerance float64
	// Aggressive pairs two pairwise passes per level (aggregates of
	// size up to 4), the "double pairwise aggregation" of PowerRush.
	Aggressive bool
}

// DefaultOptions returns the configuration used by the IR-Fusion
// pipeline: K-cycle, double pairwise aggregation, one symmetric
// Gauss-Seidel sweep on each side.
func DefaultOptions() Options {
	return Options{
		Strength:   0.25,
		MaxCoarse:  64,
		MaxLevels:  0,
		PreSmooth:  1,
		PostSmooth: 1,
		Cycle:      KCycle,
		KTolerance: 0.25,
		Aggressive: true,
	}
}

// Level holds one level of the hierarchy: its operator, the
// prolongation from the next-coarser level, and cycling workspace.
type Level struct {
	A *sparse.CSR
	P *sparse.CSR // nil on the coarsest level

	// Workspace sized for this level.
	r []float64
	// K-cycle workspace sized for the NEXT (coarser) level.
	kc1, kv1, kr, kc2, kv2, krhs, kx []float64
}

// Hierarchy is a constructed AMG hierarchy, usable directly as a
// stationary solver (Cycle) or as a preconditioner (Apply).
type Hierarchy struct {
	Levels []*Level
	coarse *sparse.DenseCholesky
	opts   Options
}

// Clone returns a hierarchy sharing h's immutable setup products —
// the level operators, prolongations, and the coarse factorization —
// with freshly allocated cycling workspace, so
// the clone can precondition a solve concurrently with h or any other
// clone. Cloning reads only immutable fields, making it safe even
// while another goroutine is mid-cycle on h. This is the contract the
// artifact cache relies on: a stored hierarchy is never used directly,
// every consumer clones it first, and the expensive setup (aggregation,
// Galerkin products, Cholesky) is amortized across all of them.
func (h *Hierarchy) Clone() *Hierarchy {
	if h == nil {
		return nil
	}
	out := &Hierarchy{
		Levels: make([]*Level, len(h.Levels)),
		coarse: h.coarse, // Solve writes only its output vector
		opts:   h.opts,
	}
	for i, lvl := range h.Levels {
		n := lvl.A.Rows()
		nl := &Level{
			A: lvl.A, P: lvl.P,
			r: make([]float64, n),
		}
		if i+1 < len(h.Levels) {
			nc := h.Levels[i+1].A.Rows()
			nl.kc1 = make([]float64, nc)
			nl.kv1 = make([]float64, nc)
			nl.kr = make([]float64, nc)
			nl.kc2 = make([]float64, nc)
			nl.kv2 = make([]float64, nc)
			nl.krhs = make([]float64, nc)
			nl.kx = make([]float64, nc)
		}
		out.Levels[i] = nl
	}
	return out
}

// ErrEmptyMatrix is returned when Build receives a 0×0 matrix.
var ErrEmptyMatrix = errors.New("amg: empty matrix")

// ErrSetup wraps every hierarchy-construction failure (including
// injected ones), so callers can classify "the AMG backend is
// unavailable" with errors.Is and fall back to a cheaper
// preconditioner (see the degradation ladder in internal/core).
var ErrSetup = errors.New("amg: setup failed")

// Build runs the setup stage: recursive pairwise aggregation and
// Galerkin coarse-operator construction, stopping at MaxCoarse where
// a dense Cholesky factorization is prepared.
func Build(a *sparse.CSR, opts Options) (*Hierarchy, error) {
	return BuildCtx(context.Background(), a, opts)
}

// BuildCtx is Build with context plumbing for the fault-injection
// harness and cooperative cancellation: an injector resolved from ctx
// (or the process-global one) may fail the setup on demand (site
// faults.SiteAMGSetup), which surfaces as an error wrapping ErrSetup
// exactly like a real construction failure would, and the coarsening
// loop checks ctx between levels so a cancelled request does not pay
// for a full setup. The recorder is resolved with obs.ActiveOr(ctx),
// so concurrent serving requests keep isolated manifests.
func BuildCtx(ctx context.Context, a *sparse.CSR, opts Options) (*Hierarchy, error) {
	st := obs.ActiveOr(ctx).StartStage("amg.setup")
	defer st.End()
	if f := faults.ActiveOr(ctx).Fire(faults.SiteAMGSetup, ""); f != nil && f.Action == faults.ActFail {
		return nil, fmt.Errorf("%w: %w", ErrSetup, f.Error())
	}
	if a.Rows() == 0 {
		return nil, ErrEmptyMatrix
	}
	if a.Rows() != a.Cols() {
		return nil, errors.New("amg: matrix must be square")
	}
	if opts.Strength <= 0 {
		opts.Strength = 0.25
	}
	if opts.MaxCoarse <= 0 {
		opts.MaxCoarse = 64
	}
	if opts.PreSmooth <= 0 && opts.PostSmooth <= 0 {
		opts.PreSmooth, opts.PostSmooth = 1, 1
	}
	if opts.KTolerance <= 0 {
		opts.KTolerance = 0.25
	}
	h := &Hierarchy{opts: opts}
	cur := a
	for {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("amg: setup cancelled after %d levels: %w", len(h.Levels), cerr)
		}
		lvl := &Level{A: cur}
		h.Levels = append(h.Levels, lvl)
		if cur.Rows() <= opts.MaxCoarse ||
			(opts.MaxLevels > 0 && len(h.Levels) >= opts.MaxLevels) {
			break
		}
		p := aggregate(cur, opts.Strength, opts.Aggressive)
		if p == nil || p.Cols() >= cur.Rows() {
			// Coarsening stalled; stop here and solve directly.
			break
		}
		lvl.P = p
		cur = sparse.TripleProduct(p, cur)
	}
	// Factor the coarsest operator densely.
	last := h.Levels[len(h.Levels)-1].A
	chol, err := sparse.NewDenseCholesky(last.Dense(), last.Rows())
	if err != nil {
		return nil, fmt.Errorf("%w: coarsest-level factorization: %w", ErrSetup, err)
	}
	h.coarse = chol
	// Allocate workspace.
	//irfusion:ctx-ok workspace allocation after the last cancellation point is fast and must complete atomically once the hierarchy exists
	for i, lvl := range h.Levels {
		n := lvl.A.Rows()
		lvl.r = make([]float64, n)
		if i+1 < len(h.Levels) {
			nc := h.Levels[i+1].A.Rows()
			lvl.kc1 = make([]float64, nc)
			lvl.kv1 = make([]float64, nc)
			lvl.kr = make([]float64, nc)
			lvl.kc2 = make([]float64, nc)
			lvl.kv2 = make([]float64, nc)
			lvl.krhs = make([]float64, nc)
			lvl.kx = make([]float64, nc)
		}
	}
	if rec := obs.ActiveOr(ctx); rec != nil {
		rec.SetGauge("amg.levels", float64(len(h.Levels)))
		rec.SetGauge("amg.operator_complexity", h.OperatorComplexity())
		//irfusion:ctx-ok per-level gauge reporting on a finished hierarchy does no cancellable work
		for i, lvl := range h.Levels {
			rec.SetGauge(fmt.Sprintf("amg.level%d.rows", i), float64(lvl.A.Rows()))
			rec.SetGauge(fmt.Sprintf("amg.level%d.nnz", i), float64(lvl.A.NNZ()))
		}
	}
	return h, nil
}

// NumLevels returns the depth of the hierarchy.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// OperatorComplexity returns Σ nnz(A_ℓ) / nnz(A_0), the standard
// measure of AMG memory overhead.
func (h *Hierarchy) OperatorComplexity() float64 {
	total := 0
	for _, lvl := range h.Levels {
		total += lvl.A.NNZ()
	}
	return float64(total) / float64(h.Levels[0].A.NNZ())
}

// Cycle performs one multigrid cycle for A·x = b, improving x in
// place. x is used as the initial guess.
func (h *Hierarchy) Cycle(x, b []float64) {
	h.cycle(0, x, b)
}

// Apply uses one cycle from a zero initial guess as the
// preconditioner application z = M⁻¹·r. It satisfies the
// solver.Preconditioner contract. When a run recorder is active, each
// application accumulates into the "amg.cycle" timing (gauge
// amg.cycle.seconds / counter amg.cycle.count), separating cycle time
// from the setup time reported by the "amg.setup" stage.
func (h *Hierarchy) Apply(z, r []float64) {
	if rec := obs.Active(); rec != nil {
		start := time.Now()
		defer func() { rec.AddSeconds("amg.cycle", time.Since(start)) }()
	}
	sparse.Zero(z)
	h.cycle(0, z, r)
}

// Solve iterates cycles until the relative residual drops below tol or
// maxCycles is reached. It returns the number of cycles performed and
// the final relative residual. Intended for stationary-solver use and
// tests; production solves go through solver.PCG with Apply.
func (h *Hierarchy) Solve(x, b []float64, tol float64, maxCycles int) (int, float64) {
	n := len(b)
	r := make([]float64, n)
	bn := sparse.Norm2(b)
	if bn == 0 { //irfusion:exact an exactly zero RHS norm means b is identically zero; the exact solution is zero
		sparse.Zero(x)
		return 0, 0
	}
	pool := parallel.Default()
	residual := func() {
		h.Levels[0].A.MulVec(r, x)
		pool.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r[i] = b[i] - r[i]
			}
		})
	}
	for k := 0; k < maxCycles; k++ {
		residual()
		rel := sparse.Norm2(r) / bn
		if rel < tol {
			return k, rel
		}
		h.Cycle(x, b)
	}
	residual()
	return maxCycles, sparse.Norm2(r) / bn
}

func (h *Hierarchy) cycle(level int, x, b []float64) {
	lvl := h.Levels[level]
	if level == len(h.Levels)-1 {
		h.coarse.Solve(x, b)
		return
	}
	a := lvl.A
	for s := 0; s < h.opts.PreSmooth; s++ {
		sparse.GaussSeidelForward(a, x, b)
	}
	// Residual restriction: r_c = Pᵀ(b - A·x).
	a.MulVec(lvl.r, x)
	parallel.Default().For(len(lvl.r), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lvl.r[i] = b[i] - lvl.r[i]
		}
	})
	restrict(lvl.P, lvl.krhs, lvl.r)

	sparse.Zero(lvl.kx)
	switch {
	case level+1 == len(h.Levels)-1:
		// Next level is coarsest: solve exactly regardless of cycle type.
		h.coarse.Solve(lvl.kx, lvl.krhs)
	case h.opts.Cycle == VCycle:
		h.cycle(level+1, lvl.kx, lvl.krhs)
	default:
		h.kcycleSolve(level+1, lvl)
	}
	// Prolongate and correct: x += P·x_c.
	prolongAdd(lvl.P, x, lvl.kx)
	for s := 0; s < h.opts.PostSmooth; s++ {
		sparse.GaussSeidelBackward(a, x, b)
	}
}

// kcycleSolve performs Notay's K-cycle coarse solve: up to two steps
// of flexible conjugate gradients on A_c·x_c = rhs, preconditioned by
// one multigrid cycle at the coarser level. Inputs and outputs live in
// the parent level's k-workspace (parent.krhs -> parent.kx).
func (h *Hierarchy) kcycleSolve(level int, parent *Level) {
	ac := h.Levels[level].A
	rhs, x := parent.krhs, parent.kx
	c1, v1, r, c2, v2 := parent.kc1, parent.kv1, parent.kr, parent.kc2, parent.kv2

	// First FCG step.
	sparse.Zero(c1)
	h.cycle(level, c1, rhs)
	ac.MulVec(v1, c1)
	rho1 := sparse.Dot(c1, v1)
	alpha1 := sparse.Dot(c1, rhs)
	if rho1 <= 0 {
		copy(x, c1)
		return
	}
	pool := parallel.Default()
	t := alpha1 / rho1
	rhsNorm := sparse.Norm2(rhs)
	pool.For(len(r), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = rhs[i] - t*v1[i]
		}
	})
	if sparse.Norm2(r) <= h.opts.KTolerance*rhsNorm {
		pool.For(len(x), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] = t * c1[i]
			}
		})
		return
	}
	// Second FCG step.
	sparse.Zero(c2)
	h.cycle(level, c2, r)
	ac.MulVec(v2, c2)
	gamma := sparse.Dot(c2, v1)
	beta := sparse.Dot(c2, v2)
	alpha2 := sparse.Dot(c2, r)
	rho2 := beta - gamma*gamma/rho1
	if rho2 <= 0 {
		for i := range x {
			x[i] = t * c1[i]
		}
		return
	}
	w1 := alpha1/rho1 - gamma*alpha2/(rho1*rho2)
	w2 := alpha2 / rho2
	pool.For(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = w1*c1[i] + w2*c2[i]
		}
	})
}

// restrict computes rc = Pᵀ·r without materializing Pᵀ: P is a 0/1
// aggregation matrix with exactly one entry per row. The scatter into
// rc races across fine rows of the same aggregate, so this stays
// sequential (coarse vectors are small enough that it doesn't show in
// profiles).
//
//irfusion:hotpath
func restrict(p *sparse.CSR, rc, r []float64) {
	sparse.Zero(rc)
	for i := 0; i < p.RowsN; i++ {
		for q := p.RowPtr[i]; q < p.RowPtr[i+1]; q++ {
			rc[p.ColInd[q]] += p.Val[q] * r[i]
		}
	}
}

// cForSerial accounts the serial fast paths of the cycle kernels
// under the pool's own elementwise-serial counter, keeping
// pool-utilization numbers honest (same idiom as package sparse).
var cForSerial = obs.GlobalCounter("parallel.for.serial")

// prolongAdd computes x += P·xc. Each fine row i writes only x[i], so
// the loop is row-parallel.
//
//irfusion:hotpath
func prolongAdd(p *sparse.CSR, x, xc []float64) {
	if p.RowsN == 0 {
		return
	}
	pool := parallel.Default()
	if pool.SerialFor(p.RowsN) {
		cForSerial.Inc()
		prolongAddRange(p, x, xc, 0, p.RowsN)
		return
	}
	pool.For(p.RowsN, func(lo, hi int) {
		prolongAddRange(p, x, xc, lo, hi)
	})
}

// prolongAddRange is the serial x += P·xc leaf over rows [lo, hi).
//
//irfusion:hotpath
func prolongAddRange(p *sparse.CSR, x, xc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		for q := p.RowPtr[i]; q < p.RowPtr[i+1]; q++ {
			x[i] += p.Val[q] * xc[p.ColInd[q]]
		}
	}
}
