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

	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/sparse"
)

// Cycle selects the multigrid cycling strategy.
type Cycle int

const (
	// VCycle visits each coarse level once per cycle.
	VCycle Cycle = iota
	// KCycle accelerates the solve on the first coarse level with (at
	// most) two steps of flexible conjugate gradients, as proposed by
	// Notay and used by PowerRush, and runs V-cycles beneath it (see
	// kDepth).
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

// kDepth is how many coarse levels KCycle accelerates (levels
// 1..kDepth; V-cycles beneath). Accelerating all of them visits level
// ℓ 2^ℓ times for an iteration count the first alone already buys:
// 24/27/28/32 against 24/27/29/29 at 48/64/128/256 µm (DESIGN.md).
const kDepth = 1

// The hierarchy's fixed parameters: the paper's only solver knob is the
// PCG iteration budget, so nothing sets these.
const (
	// strength is the strong-connection threshold β: the entry a_ij is
	// a strong connection of i when -a_ij ≥ β·max_k(-a_ik).
	strength = 0.25
	// maxCoarse is the size at which coarsening stops and a dense
	// Cholesky factorization solves the coarsest level exactly.
	maxCoarse = 64
	// kTolerance is the K-cycle truncation threshold: the second FCG
	// step is skipped when the first already reduced the coarse
	// residual below kTolerance times its input norm.
	kTolerance = 0.25
)

// Options configures hierarchy construction and cycling. Each level
// is smoothed by one forward Gauss-Seidel sweep before and one
// backward sweep after the coarse-grid correction; the mirrored order
// keeps the cycle symmetric.
type Options struct {
	// Cycle selects V or K cycling.
	Cycle Cycle
	// Aggressive pairs two pairwise passes per level (aggregates of
	// size up to 4), the "double pairwise aggregation" of PowerRush.
	Aggressive bool
}

// DefaultOptions returns the configuration used by the IR-Fusion
// pipeline: K-cycle, double pairwise aggregation.
func DefaultOptions() Options {
	return Options{Cycle: KCycle, Aggressive: true}
}

// Level holds one level of the hierarchy: its operator, the
// aggregation map onto the next-coarser level, and cycling workspace.
type Level struct {
	A *sparse.CSR
	// dpos[i] indexes row i's diagonal entry in A.ColInd/A.Val. Rows
	// are column-sorted, so the strict lower triangle of row i is
	// [RowPtr[i], dpos[i]) and the strict upper (dpos[i], RowPtr[i+1]).
	dpos []int
	// agg[i] is the coarse row fine row i belongs to: the prolongation
	// is the 0/1 matrix P[i, agg[i]] = 1. Nil on the coarsest level.
	agg []int
	// Workspace: r is sized for this level; rc, xc (restricted residual,
	// coarse correction) and the five FCG vectors k for the next, k
	// only above an accelerated level.
	r, rc, xc []float64
	k         [5][]float64
}

// Hierarchy is a constructed AMG hierarchy, used as a preconditioner
// (Apply).
type Hierarchy struct {
	Levels []*Level
	coarse *sparse.DenseCholesky
	opts   Options
}

// Clone returns a hierarchy sharing h's immutable setup products —
// the level operators, diagonal positions, aggregation maps, and the
// coarse factorization — with freshly allocated cycling workspace, so
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
		out.Levels[i] = &Level{A: lvl.A, dpos: lvl.dpos, agg: lvl.agg}
	}
	out.allocWorkspace()
	return out
}

// allocWorkspace gives every level its cycling vectors.
func (h *Hierarchy) allocWorkspace() {
	for i, lvl := range h.Levels[:len(h.Levels)-1] {
		nc := h.Levels[i+1].A.Rows()
		lvl.r = make([]float64, lvl.A.Rows())
		lvl.rc = make([]float64, nc)
		lvl.xc = make([]float64, nc)
		if h.accelerated(i + 1) {
			for j := range lvl.k {
				lvl.k[j] = make([]float64, nc)
			}
		}
	}
}

// accelerated reports whether the solve on a coarse level runs the
// two-step FCG; the coarsest level never does (it is solved exactly).
func (h *Hierarchy) accelerated(level int) bool {
	return h.opts.Cycle == KCycle && level <= kDepth && level < len(h.Levels)-1
}

// errEmptyMatrix is returned when Build receives a 0×0 matrix.
var errEmptyMatrix = errors.New("amg: empty matrix")

// errSetup wraps every hierarchy-construction failure (including
// injected ones), so callers can classify "the AMG backend is
// unavailable" with errors.Is (see the degradation ladder in
// internal/plan).
var errSetup = errors.New("amg: setup failed")

// Build runs the setup stage: recursive pairwise aggregation and
// Galerkin coarse-operator construction, stopping at maxCoarse where
// a dense Cholesky factorization is prepared.
func Build(a *sparse.CSR, opts Options) (*Hierarchy, error) {
	return BuildCtx(context.Background(), a, opts)
}

// BuildCtx is Build with context plumbing for the fault-injection
// harness and cooperative cancellation: an injector resolved from ctx
// (or the process-global one) may fail the setup on demand (site
// faults.SiteAMGSetup), which surfaces as an error wrapping errSetup
// exactly like a real construction failure would, and the coarsening
// loop checks ctx between levels so a cancelled request does not pay
// for a full setup. The recorder is the one bound to ctx, so
// concurrent serving requests keep isolated manifests.
func BuildCtx(ctx context.Context, a *sparse.CSR, opts Options) (*Hierarchy, error) {
	st := obs.FromContext(ctx).StartStage("amg.setup")
	defer st.End()
	if f := faults.ActiveOr(ctx).Fire(faults.SiteAMGSetup, ""); f != nil && f.Action == faults.ActFail {
		return nil, fmt.Errorf("%w: %w", errSetup, f.Error())
	}
	if a.Rows() == 0 {
		return nil, errEmptyMatrix
	}
	if a.Rows() != a.Cols() {
		return nil, errors.New("amg: matrix must be square")
	}
	h := &Hierarchy{opts: opts}
	cur := a
	for {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("amg: setup cancelled after %d levels: %w", len(h.Levels), cerr)
		}
		dpos, err := diagPositions(cur)
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %w", errSetup, len(h.Levels), err)
		}
		lvl := &Level{A: cur, dpos: dpos}
		h.Levels = append(h.Levels, lvl)
		if cur.Rows() <= maxCoarse {
			break
		}
		agg, next := coarsen(cur, opts.Aggressive)
		if agg == nil || next.Rows() >= cur.Rows() {
			// Coarsening stalled; stop here and solve directly.
			break
		}
		lvl.agg = agg
		cur = next
	}
	// Factor the coarsest operator densely.
	last := h.Levels[len(h.Levels)-1].A
	chol, err := sparse.NewDenseCholesky(last.Dense(), last.Rows())
	if err != nil {
		return nil, fmt.Errorf("%w: coarsest-level factorization: %w", errSetup, err)
	}
	h.coarse = chol
	h.allocWorkspace()
	if rec := obs.FromContext(ctx); rec != nil {
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

// diagPositions locates every row's diagonal entry. A row without a
// positive one cannot be smoothed (nor is the operator SPD).
func diagPositions(a *sparse.CSR) ([]int, error) {
	dpos := make([]int, a.RowsN)
	for i := range dpos {
		p := a.RowPtr[i]
		for p < a.RowPtr[i+1] && a.ColInd[p] < i {
			p++
		}
		if p == a.RowPtr[i+1] || a.ColInd[p] != i || !(a.Val[p] > 0) {
			return nil, fmt.Errorf("row %d has no positive diagonal", i)
		}
		dpos[i] = p
	}
	return dpos, nil
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

// Apply uses one cycle from a zero initial guess as the
// preconditioner application z = M⁻¹·r; z is output only. It
// satisfies the solver.Preconditioner contract; the wall time of its
// applications is part of the enclosing solve's SolveRecord.
func (h *Hierarchy) Apply(z, r []float64) {
	h.cycle(0, z, r)
}

// cycle overwrites x with one multigrid cycle on A_level·x = b from
// the zero guess — the only guess a preconditioner application or an
// FCG step ever starts from, which is what lets the pre-smoothing sweep
// and the residual share one pass over the matrix (sweepResidual).
func (h *Hierarchy) cycle(level int, x, b []float64) {
	if level == len(h.Levels)-1 {
		h.coarse.Solve(x, b)
		return
	}
	lvl := h.Levels[level]
	sweepResidual(lvl.A, lvl.dpos, x, lvl.r, b)
	restrict(lvl.agg, lvl.rc, lvl.r)
	if h.accelerated(level + 1) {
		h.fcgSolve(level+1, lvl)
	} else {
		h.cycle(level+1, lvl.xc, lvl.rc)
	}
	prolongAdd(lvl.agg, x, lvl.xc)
	sweepBackward(lvl.A, lvl.dpos, x, b)
}

// fcgSolve performs Notay's K-cycle coarse solve: up to two steps
// of flexible conjugate gradients on A_level·x = rhs, preconditioned by
// one multigrid cycle at that level. Inputs and outputs live in
// the parent level's workspace (parent.rc -> parent.xc).
func (h *Hierarchy) fcgSolve(level int, parent *Level) {
	ac := h.Levels[level].A
	rhs, x := parent.rc, parent.xc
	c1, v1, r, c2, v2 := parent.k[0], parent.k[1], parent.k[2], parent.k[3], parent.k[4]

	// First FCG step.
	h.cycle(level, c1, rhs)
	ac.MulVec(v1, c1)
	rho1 := sparse.Dot(c1, v1)
	alpha1 := sparse.Dot(c1, rhs)
	if rho1 <= 0 {
		copy(x, c1)
		return
	}
	t := alpha1 / rho1
	copy(r, rhs)
	sparse.Axpy(-t, v1, r)
	sparse.Zero(x)
	if sparse.Norm2(r) <= kTolerance*sparse.Norm2(rhs) {
		sparse.Axpy(t, c1, x)
		return
	}
	// Second FCG step.
	h.cycle(level, c2, r)
	ac.MulVec(v2, c2)
	gamma := sparse.Dot(c2, v1)
	beta := sparse.Dot(c2, v2)
	alpha2 := sparse.Dot(c2, r)
	rho2 := beta - gamma*gamma/rho1
	if rho2 <= 0 {
		sparse.Axpy(t, c1, x)
		return
	}
	sparse.Axpy(t-gamma*alpha2/(rho1*rho2), c1, x)
	sparse.Axpy(alpha2/rho2, c2, x)
}

// sweepResidual runs one forward Gauss-Seidel sweep on A·x = b from
// the zero guess and leaves r = b − A·x. From zero the sweep reads
// only the strict lower triangle (every x_j with j > i is still 0),
// and once it has run (L+D)·x = b holds row by row, so the residual is
// −U·x: one pass over A in all. x and r are output only.
//
//irfusion:hotpath
func sweepResidual(a *sparse.CSR, dpos []int, x, r, b []float64) {
	rp, ci, v := a.RowPtr, a.ColInd, a.Val
	for i, d := range dpos {
		sum := b[i]
		for p := rp[i]; p < d; p++ {
			sum -= v[p] * x[ci[p]]
		}
		x[i] = sum / v[d]
	}
	for i, d := range dpos {
		sum := 0.0
		for p := d + 1; p < rp[i+1]; p++ {
			sum -= v[p] * x[ci[p]]
		}
		r[i] = sum
	}
}

// sweepBackward performs one backward Gauss-Seidel sweep on A·x = b,
// walking each row's two triangles around the known diagonal position.
//
//irfusion:hotpath
func sweepBackward(a *sparse.CSR, dpos []int, x, b []float64) {
	rp, ci, v := a.RowPtr, a.ColInd, a.Val
	for i := len(dpos) - 1; i >= 0; i-- {
		d := dpos[i]
		sum := b[i]
		for p := rp[i]; p < d; p++ {
			sum -= v[p] * x[ci[p]]
		}
		for p := d + 1; p < rp[i+1]; p++ {
			sum -= v[p] * x[ci[p]]
		}
		x[i] = sum / v[d]
	}
}

// restrict computes rc = Pᵀ·r through the aggregation map. The
// scatter into rc races across fine rows of the same aggregate, so
// this stays sequential.
//
//irfusion:hotpath
func restrict(agg []int, rc, r []float64) {
	sparse.Zero(rc)
	for i, g := range agg {
		rc[g] += r[i]
	}
}

// prolongAdd computes x += P·xc through the aggregation map.
//
//irfusion:hotpath
func prolongAdd(agg []int, x, xc []float64) {
	for i, g := range agg {
		x[i] += xc[g]
	}
}
