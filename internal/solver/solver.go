// Package solver provides the Krylov solvers of the numerical stage:
// conjugate gradients (CG), preconditioned CG, and flexible PCG for
// nonlinear preconditioners such as the AMG K-cycle. It exposes the
// single knob the IR-Fusion framework relies on — the iteration budget
// — so callers can request a deliberately rough solution.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/sparse"
)

// Preconditioner applies z = M⁻¹·r. Implementations must treat z as
// output-only. The AMG hierarchy (amg.Hierarchy) implements this.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Identity is the trivial preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
//
//irfusion:hotpath
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is diagonal scaling, the cheapest nontrivial preconditioner
// and a classic baseline against AMG.
type Jacobi struct {
	InvDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
func NewJacobi(a *sparse.CSR) *Jacobi {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 { //irfusion:exact an absent diagonal reads as exactly zero; its inverse stays zero so the row is skipped
			inv[i] = 1 / v
		}
	}
	return &Jacobi{InvDiag: inv}
}

// Apply computes z = D⁻¹·r.
//
//irfusion:hotpath
func (j *Jacobi) Apply(z, r []float64) {
	for i := range r {
		z[i] = j.InvDiag[i] * r[i]
	}
}

// Options controls a PCG run.
type Options struct {
	// Tol is the relative-residual stopping tolerance ‖r‖/‖b‖.
	Tol float64
	// MaxIter caps the number of iterations. For the rough solves of
	// the fusion pipeline this IS the budget (set Tol to 0 to force
	// exactly MaxIter iterations unless the residual hits zero).
	MaxIter int
	// Flexible selects the Polak-Ribière update of β, required when
	// the preconditioner is nonlinear (the AMG K-cycle is: its
	// truncation test makes M⁻¹ vary between applications).
	Flexible bool
	// Record keeps the relative residual after every iteration.
	Record bool
	// Label names the solve in observability output: when a run
	// recorder is bound to the context (PCGCtx), PCG reports its iteration
	// count, timing, and residual history under this label. Empty
	// defaults to "pcg".
	Label string
}

// DefaultOptions returns a converged-solve configuration.
func DefaultOptions() Options {
	return Options{Tol: 1e-10, MaxIter: 1000, Flexible: true, Record: true}
}

// RoughOptions returns the k-iteration rough-solve configuration used
// by the fusion pipeline.
func RoughOptions(iters int) Options {
	return Options{Tol: 0, MaxIter: iters, Flexible: true, Record: true}
}

// Result reports the outcome of a solve.
type Result struct {
	Iterations int
	Residual   float64   // final relative residual ‖b−Ax‖/‖b‖
	History    []float64 // per-iteration relative residuals (if recorded)
	Converged  bool
}

// ErrIndefinite is returned when CG detects a non-SPD operator or
// preconditioner (non-positive curvature or inner product).
var ErrIndefinite = errors.New("solver: operator or preconditioner not positive definite")

// ErrCancelled is returned (wrapped around the context's error, so
// errors.Is matches both) when a context-aware solve is cancelled or
// times out mid-iteration. The accompanying Result is a valid partial
// outcome: iterations completed so far, the last relative residual,
// and the recorded residual history up to the cancellation point.
var ErrCancelled = errors.New("solver: solve cancelled")

// ErrBreakdown is returned when an inner product or the residual norm
// becomes non-finite (overflow or NaN), which a budgeted Tol=0 solve
// can reach when pushed far past machine precision.
var ErrBreakdown = errors.New("solver: numerical breakdown (non-finite value)")

// PCG solves A·x = b with preconditioned conjugate gradients. x holds
// the initial guess on entry and the solution on return.
//
// Every vector kernel is a serial loop and every inner product sums in
// index order, so the residual history is bitwise reproducible
// run-to-run and on any core count.
//
// PCG reports to no recorder; PCGCtx reports the outcome — iteration
// count, wall time, final residual, and the recorded history — as a
// SolveRecord under opts.Label to the recorder bound to its context.
func PCG(a *sparse.CSR, x, b []float64, m Preconditioner, opts Options) (Result, error) {
	return PCGCtx(context.Background(), a, x, b, m, opts)
}

// PCGCtx is PCG with cooperative cancellation: the iteration loop
// checks ctx before every iteration and stops early — returning the
// partial Result wrapped in ErrCancelled — when the context is
// cancelled or its deadline passes. The solve record (including the
// partial residual history) is still reported to the run recorder, so
// a cancelled request's manifest shows how far the solve got.
//
// The recorder is the one bound to ctx with obs.WithRecorder, which
// isolates this solve's records from concurrent solves; without one
// nothing is recorded.
func PCGCtx(ctx context.Context, a *sparse.CSR, x, b []float64, m Preconditioner, opts Options) (res Result, err error) {
	if rec := obs.FromContext(ctx); rec != nil {
		label := opts.Label
		if label == "" {
			label = "pcg"
		}
		start := time.Now()
		defer func() {
			rec.RecordSolve(obs.SolveRecord{
				Label:      label,
				Iterations: res.Iterations,
				Residual:   res.Residual,
				Converged:  res.Converged,
				Seconds:    time.Since(start).Seconds(),
				History:    res.History,
			})
		}()
	}
	// Every exit reports the last relative residual computed, failed
	// solves included. Deferred after the recorder's hook, so it runs
	// first and the solve record carries the same number.
	var rel float64
	defer func() { res.Residual = rel }()
	n := a.Rows()
	if len(x) != n || len(b) != n {
		return Result{}, errors.New("solver: dimension mismatch")
	}
	if m == nil {
		m = Identity{}
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = n
	}

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	var zPrev, rPrev []float64
	if opts.Flexible {
		zPrev = make([]float64, n)
		rPrev = make([]float64, n)
	}

	bn := sparse.Norm2(b)
	if bn == 0 { //irfusion:exact a zero right-hand side has the exact solution x = 0; any nonzero norm must run the solve
		sparse.Zero(x)
		return Result{Converged: true}, nil
	}

	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rel = sparse.Norm2(r) / bn
	if opts.Record {
		res.History = append(res.History, rel)
	}
	if rel == 0 || (opts.Tol > 0 && rel < opts.Tol) { //irfusion:exact an exactly zero residual means the guess already solves the system; Tol=0 budget solves must not stop on merely-small residuals
		res.Converged = true
		return res, nil
	}

	m.Apply(z, r)
	copy(p, z)
	rz := sparse.Dot(r, z)
	if math.IsNaN(rz) || math.IsInf(rz, 0) {
		return res, ErrBreakdown
	}
	if rz <= 0 {
		if rz == 0 { //irfusion:exact exact-zero inner product is sub-machine-precision convergence; negative is indefiniteness — the sign split must be exact
			// r·M⁻¹r underflowed to exact zero: the residual is solved
			// to beyond machine precision. Converged, not indefinite.
			res.Converged = true
			return res, nil
		}
		return res, ErrIndefinite
	}

	// Fault-injection hook (faults.SitePCG): resolved once, one nil
	// check per iteration when injection is disabled. A NaN fault
	// poisons the residual vector so the solver's own non-finite
	// detection path — not a shortcut — produces the ErrBreakdown.
	inj := faults.ActiveOr(ctx)

	for k := 0; k < opts.MaxIter; k++ {
		if cerr := ctx.Err(); cerr != nil {
			return res, fmt.Errorf("%w after %d iterations: %w", ErrCancelled, res.Iterations, cerr)
		}
		if inj != nil {
			if f := inj.Fire(faults.SitePCG, opts.Label); f != nil {
				switch f.Action {
				case faults.ActBreakdown:
					return res, fmt.Errorf("%w (injected at iteration %d)", ErrBreakdown, k)
				case faults.ActIndefinite:
					return res, fmt.Errorf("%w (injected at iteration %d)", ErrIndefinite, k)
				case faults.ActNaN:
					r[0] = math.NaN()
				case faults.ActStall:
					// Park mid-solve until the caller gives up: the serving
					// tests hold a worker busy this way.
					return res, fmt.Errorf("%w after %d iterations: %w", ErrCancelled, res.Iterations, f.Sleep(ctx))
				}
			}
		}
		a.MulVec(ap, p)
		pap := sparse.Dot(p, ap)
		if math.IsNaN(pap) || math.IsInf(pap, 0) {
			return res, ErrBreakdown
		}
		if pap <= 0 {
			if pap == 0 { //irfusion:exact exact-zero curvature means no representable progress; negative means indefinite — the sign split must be exact
				// Search-direction curvature underflowed to zero: no
				// further progress is representable. Treat as converged
				// at the current (sub-machine-precision) residual.
				res.Converged = true
				return res, nil
			}
			return res, ErrIndefinite
		}
		alpha := rz / pap
		if opts.Flexible {
			copy(rPrev, r)
			copy(zPrev, z)
		}
		sparse.Axpy(alpha, p, x)
		sparse.Axpy(-alpha, ap, r)
		res.Iterations = k + 1

		rel = sparse.Norm2(r) / bn
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			return res, ErrBreakdown
		}
		if opts.Record {
			res.History = append(res.History, rel)
		}
		if rel == 0 || (opts.Tol > 0 && rel < opts.Tol) { //irfusion:exact an exactly zero residual is solved; Tol=0 budget solves must not stop on merely-small residuals
			res.Converged = true
			break
		}

		m.Apply(z, r)
		var rzNew float64
		var beta float64
		if opts.Flexible {
			// Polak-Ribière: β = z·(r − r_prev) / (z_prev·r_prev),
			// summed in index order like Dot.
			num := 0.0
			for i := range z {
				num += z[i] * (r[i] - rPrev[i])
			}
			rzNew = sparse.Dot(r, z)
			beta = num / rz
			if beta < 0 {
				beta = 0 // restart
			}
		} else {
			rzNew = sparse.Dot(r, z)
			beta = rzNew / rz
		}
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		if math.IsNaN(rzNew) || math.IsInf(rzNew, 0) {
			return res, ErrBreakdown
		}
		if rzNew <= 0 {
			if rzNew == 0 { //irfusion:exact exact-zero preconditioned residual is sub-machine-precision convergence; the sign split must be exact
				// Same underflow situation as above: the preconditioned
				// residual vanished at machine scale.
				res.Converged = true
				break
			}
			return res, ErrIndefinite
		}
		rz = rzNew
	}
	if opts.Tol > 0 && rel < opts.Tol {
		res.Converged = true
	}
	return res, nil
}

// RelResidual returns ‖b − A·x‖ / ‖b‖ (or the absolute residual norm
// when b is zero).
func RelResidual(a *sparse.CSR, x, b []float64) float64 {
	n := a.Rows()
	r := make([]float64, n)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bn := sparse.Norm2(b)
	if bn == 0 { //irfusion:exact a zero right-hand side switches to the absolute residual; no tolerance is meaningful here
		return sparse.Norm2(r)
	}
	return sparse.Norm2(r) / bn
}

// SSOR is a symmetric-Gauss-Seidel (SSOR-type) preconditioner: each
// application performs Sweeps symmetric sweeps on A·z = r from a zero
// guess. Its per-iteration progress is deliberately modest — on the
// miniature grids of this reproduction it emulates how AMG-PCG
// advances per iteration on industrial-scale designs, keeping the
// paper's 1-10 iteration trade-off axis meaningful (see DESIGN.md).
type SSOR struct {
	A      *sparse.CSR
	Sweeps int
}

// NewSSOR builds the smoother preconditioner.
func NewSSOR(a *sparse.CSR, sweeps int) *SSOR {
	if sweeps < 1 {
		sweeps = 1
	}
	return &SSOR{A: a, Sweeps: sweeps}
}

// Apply runs the symmetric sweeps.
//
//irfusion:hotpath
func (s *SSOR) Apply(z, r []float64) {
	sparse.Zero(z)
	sparse.SymmetricGaussSeidel(s.A, z, r, s.Sweeps)
}
