package circuit

import (
	"errors"
	"fmt"

	"irfusion/internal/amg"
	"irfusion/internal/solver"
	"irfusion/internal/sparse"
)

// Transient analysis extension: the static framework of the paper
// generalizes to dynamic IR drop (the regime MAVIREC targets) by
// adding capacitance and integrating
//
//	G·d(t) + C·d'(t) = I(t)
//
// in the drop formulation with backward Euler:
//
//	(G + C/h)·d_{k+1} = I(t_{k+1}) + (C/h)·d_k.
//
// The left-hand operator is SPD, so the same AMG-PCG machinery
// applies, with the hierarchy built once and reused every step.

// Cap is a capacitor; B == -1 denotes a ground-terminated (decap)
// element.
type Cap struct {
	A, B   int
	Farads float64
}

// Transient integrates the network over time with a fixed step.
type Transient struct {
	sys  *System
	h    float64
	ceff *sparse.CSR // G + C/h over the unknowns
	crhs *sparse.CSR // C/h over the unknowns (for the history term)
	hier *amg.Hierarchy
	d    []float64 // current drop state
	t    float64
}

// errNoTimeStep indicates a non-positive step size.
var errNoTimeStep = errors.New("circuit: transient step size must be positive")

// NewTransient prepares a backward-Euler integrator with step h
// seconds, starting from the zero-drop (fully charged) state.
func NewTransient(sys *System, h float64) (*Transient, error) {
	if h <= 0 {
		return nil, errNoTimeStep
	}
	nw := sys.Network
	m := sys.N()
	tc := sparse.NewTriplet(m, m, 4*len(nw.Capacitors)+1)
	for _, c := range nw.Capacitors {
		if c.Farads < 0 {
			return nil, fmt.Errorf("circuit: negative capacitance %g", c.Farads)
		}
		g := c.Farads / h
		ra := sys.Reduced[c.A]
		rb := -1
		if c.B >= 0 {
			rb = sys.Reduced[c.B]
		}
		if ra >= 0 {
			tc.Add(ra, ra, g)
		}
		if rb >= 0 {
			tc.Add(rb, rb, g)
		}
		if ra >= 0 && rb >= 0 {
			tc.Add(ra, rb, -g)
			tc.Add(rb, ra, -g)
		}
	}
	crhs := tc.ToCSR()
	// ceff = G + C/h.
	te := sparse.NewTriplet(m, m, sys.G.NNZ()+crhs.NNZ())
	for i := 0; i < m; i++ {
		for p := sys.G.RowPtr[i]; p < sys.G.RowPtr[i+1]; p++ {
			te.Add(i, sys.G.ColInd[p], sys.G.Val[p])
		}
		for p := crhs.RowPtr[i]; p < crhs.RowPtr[i+1]; p++ {
			te.Add(i, crhs.ColInd[p], crhs.Val[p])
		}
	}
	ceff := te.ToCSR()
	hier, err := amg.Build(ceff, amg.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("circuit: transient AMG setup: %w", err)
	}
	return &Transient{
		sys: sys, h: h, ceff: ceff, crhs: crhs, hier: hier,
		d: make([]float64, m),
	}, nil
}

// Time returns the current simulation time in seconds.
func (tr *Transient) Time() float64 { return tr.t }

// Drops returns the current reduced drop state (live slice; copy
// before mutating).
func (tr *Transient) Drops() []float64 { return tr.d }

// Step advances one backward-Euler step with the given per-unknown
// current draws (same indexing as System.I; pass sys.I for the static
// load pattern, or a scaled/time-varying vector). It returns the PCG
// iteration count.
func (tr *Transient) Step(loads []float64) (int, error) {
	m := tr.sys.N()
	if len(loads) != m {
		return 0, errors.New("circuit: transient load vector length mismatch")
	}
	rhs := make([]float64, m)
	tr.crhs.MulVec(rhs, tr.d)
	for i := range rhs {
		rhs[i] += loads[i]
	}
	res, err := solver.PCG(tr.ceff, tr.d, rhs, tr.hier, solver.Options{
		Tol: 1e-10, MaxIter: 500, Flexible: true,
	})
	if err != nil {
		return res.Iterations, err
	}
	if !res.Converged {
		return res.Iterations, fmt.Errorf("circuit: transient step stalled at %g", res.Residual)
	}
	tr.t += tr.h
	return res.Iterations, nil
}

// Run integrates steps time steps, calling loadsAt(stepIndex, time)
// for the load vector of each step, and returns the peak drop seen at
// any unknown over the window — the dynamic worst-case IR drop.
func (tr *Transient) Run(steps int, loadsAt func(step int, t float64) []float64) (float64, error) {
	peak := 0.0
	for k := 0; k < steps; k++ {
		loads := loadsAt(k, tr.t+tr.h)
		if _, err := tr.Step(loads); err != nil {
			return peak, err
		}
		for _, v := range tr.d {
			if v > peak {
				peak = v
			}
		}
	}
	return peak, nil
}
