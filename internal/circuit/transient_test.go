package circuit

import (
	"math"
	"testing"

	"irfusion/internal/solver"
	"irfusion/internal/spice"
)

// rcDeck: pad --R-- n with decap C at n and a step load I.
// Time constant τ = R·C; final drop I·R.
const rcDeck = `* rc charge
V1 n1_m2_0_0 0 1.0
R1 n1_m2_0_0 n1_m1_1_0 10
C1 n1_m1_1_0 0 1m
I1 n1_m1_1_0 0 0.02
.end
`

func transientSystem(t *testing.T, deck string) (*Network, *System) {
	t.Helper()
	nl, err := spice.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := FromNetlist(nl)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return nw, sys
}

func TestTransientRCChargeCurve(t *testing.T) {
	_, sys := transientSystem(t, rcDeck)
	const (
		r   = 10.0
		c   = 1e-3
		amp = 0.02
	)
	tau := r * c // 10 ms
	h := tau / 100
	tr, err := NewTransient(sys, h)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 300; step++ {
		if _, err := tr.Step(sys.I); err != nil {
			t.Fatal(err)
		}
		want := amp * r * (1 - math.Exp(-tr.Time()/tau))
		got := tr.Drops()[0]
		// Backward Euler at h = τ/100 tracks within ~1.5 % of final.
		if math.Abs(got-want) > 0.015*amp*r {
			t.Fatalf("t=%v: drop %v, want %v", tr.Time(), got, want)
		}
	}
	// After 3τ the response should be near the static solution.
	static := make([]float64, sys.N())
	if _, err := solver.PCG(sys.G, static, sys.I, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Drops()[0]-static[0]) > 0.06*static[0] {
		t.Errorf("3τ response %v far from static %v", tr.Drops()[0], static[0])
	}
}

func TestTransientDischargeDecays(t *testing.T) {
	_, sys := transientSystem(t, rcDeck)
	tr, err := NewTransient(sys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// Charge up, then cut the load and watch the drop decay.
	for step := 0; step < 200; step++ {
		if _, err := tr.Step(sys.I); err != nil {
			t.Fatal(err)
		}
	}
	charged := tr.Drops()[0]
	zero := make([]float64, sys.N())
	prev := charged
	for step := 0; step < 100; step++ {
		if _, err := tr.Step(zero); err != nil {
			t.Fatal(err)
		}
		cur := tr.Drops()[0]
		if cur > prev+1e-12 {
			t.Fatalf("discharge not monotone: %v -> %v", prev, cur)
		}
		prev = cur
	}
	if prev > 0.5*charged {
		t.Errorf("drop barely decayed: %v -> %v", charged, prev)
	}
}

func TestTransientNoCapsMatchesStatic(t *testing.T) {
	// Without capacitance a single backward-Euler step IS the static
	// solve.
	deck := `V1 n1_m2_0_0 0 1
R1 n1_m2_0_0 n1_m1_1_0 2
R2 n1_m1_1_0 n1_m1_2_0 3
I1 n1_m1_2_0 0 0.1
.end
`
	_, sys := transientSystem(t, deck)
	tr, err := NewTransient(sys, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(sys.I); err != nil {
		t.Fatal(err)
	}
	static := make([]float64, sys.N())
	if _, err := solver.PCG(sys.G, static, sys.I, nil, cgOpts); err != nil {
		t.Fatal(err)
	}
	for i := range static {
		if math.Abs(tr.Drops()[i]-static[i]) > 1e-8 {
			t.Fatalf("no-cap transient differs from static at %d: %v vs %v", i, tr.Drops()[i], static[i])
		}
	}
}

func TestTransientDecapReducesPeak(t *testing.T) {
	// Decoupling capacitance must lower the peak drop under a pulsed
	// load — the physical effect decap insertion exists for.
	base := `V1 n1_m2_0_0 0 1.0
R1 n1_m2_0_0 n1_m1_1_0 10
I1 n1_m1_1_0 0 0.02
`
	run := func(deck string) float64 {
		_, sys := transientSystem(t, deck+".end\n")
		tr, err := NewTransient(sys, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		pulse := func(step int, _ float64) []float64 {
			loads := make([]float64, sys.N())
			if step < 5 { // short burst
				copy(loads, sys.I)
			}
			return loads
		}
		peak, err := tr.Run(30, pulse)
		if err != nil {
			t.Fatal(err)
		}
		return peak
	}
	noDecap := run(base)
	withDecap := run(base + "C1 n1_m1_1_0 0 2m\n")
	if withDecap >= noDecap {
		t.Errorf("decap failed to reduce peak: %v (with) vs %v (without)", withDecap, noDecap)
	}
}

func TestTransientCapBetweenNodes(t *testing.T) {
	deck := `V1 n1_m2_0_0 0 1
R1 n1_m2_0_0 n1_m1_1_0 1
R2 n1_m1_1_0 n1_m1_2_0 1
C1 n1_m1_1_0 n1_m1_2_0 1m
I1 n1_m1_2_0 0 0.01
.end
`
	nw, sys := transientSystem(t, deck)
	if len(nw.Capacitors) != 1 || nw.Capacitors[0].B == -1 {
		t.Fatal("node-to-node capacitor not recorded")
	}
	tr, err := NewTransient(sys, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		if _, err := tr.Step(sys.I); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range tr.Drops() {
		if v < 0 || v > 1 {
			t.Fatalf("implausible drop %v", v)
		}
	}
}

func TestTransientErrors(t *testing.T) {
	_, sys := transientSystem(t, rcDeck)
	if _, err := NewTransient(sys, 0); err != errNoTimeStep {
		t.Errorf("err = %v, want errNoTimeStep", err)
	}
	tr, err := NewTransient(sys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(make([]float64, sys.N()+1)); err == nil {
		t.Error("expected length mismatch error")
	}
	// Negative capacitance rejected at parse/build level.
	nl, err := spice.ParseString("V1 n1_m2_0_0 0 1\nR1 n1_m2_0_0 n1_m1_1_0 1\nC1 n1_m1_1_0 0 -1m\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromNetlist(nl); err == nil {
		t.Error("expected negative-capacitance error")
	}
}

func TestGroundSidedCapacitorNormalized(t *testing.T) {
	nl, err := spice.ParseString("V1 n1_m2_0_0 0 1\nR1 n1_m2_0_0 n1_m1_1_0 1\nC1 0 n1_m1_1_0 3m\nI1 n1_m1_1_0 0 1m\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := FromNetlist(nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Capacitors) != 1 || nw.Capacitors[0].B != -1 || nw.Capacitors[0].Farads != 3e-3 {
		t.Fatalf("cap not normalized: %+v", nw.Capacitors)
	}
}
