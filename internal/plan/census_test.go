package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"irfusion/internal/circuit"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
	"irfusion/internal/race"
	"irfusion/internal/spice"
)

// censusClass is one deck class of the rung census.
type censusClass struct {
	name  string
	decks []pgen.Config
	// edit, when set, rewrites each generated deck's cards before
	// admission.
	edit func(nl *spice.Netlist)
	// converged pins each deck's converged solve's Converged flag as the
	// census found it: a solve that stops at its iteration cap unconverged
	// is still served by its rung.
	converged bool
	// rejected: Admit turns the deck away with this issue code, and no
	// solve runs.
	rejected string
}

// pgenDecks is one pgen class at one die size, seeds 1–5.
func pgenDecks(class pgen.Class, size int) []pgen.Config {
	var out []pgen.Config
	for seed := int64(1); seed <= 5; seed++ {
		out = append(out, pgen.DefaultConfig("census", class, size, size, seed))
	}
	return out
}

// contrast is the ill-conditioned deck of solver's golden test: half of
// a real-class deck's resistors, picked by a seeded coin, scaled by c.
func contrast(c float64) func(nl *spice.Netlist) {
	return func(nl *spice.Netlist) {
		rng := rand.New(rand.NewSource(3))
		for i := range nl.Elements {
			if e := &nl.Elements[i]; e.Type == spice.Resistor && rng.Intn(2) == 0 {
				e.Value *= c
			}
		}
	}
}

// overflow sets the first card of type typ to the value text parses to.
func overflow(typ spice.ElemType, text string) func(nl *spice.Netlist) {
	return func(nl *spice.Netlist) {
		v, err := spice.ParseValue(text)
		if err != nil {
			panic(err)
		}
		for i := range nl.Elements {
			if nl.Elements[i].Type == typ {
				nl.Elements[i].Value = v
				return
			}
		}
	}
}

// TestRungCensus is the rung census: every deck class, solved every way
// a request can ask for, with no fault spec, and the rung that serves
// it. The modes are the converged solve with no cache, the budgeted
// solve at k = 1..10 under each preconditioner, and the fused rough
// ladder at k = 1..10. Every admitted deck is served by the first rung
// of its ladder, and that rung is the only one its cold ladder has. A
// fallback rung earns its place only with a deck that reaches it. The
// census lists decks that overflow a value as "rejected by Admit": they
// are the only decks that ever reached a fallback rung, and the
// fallbacks served them badly.
func TestRungCensus(t *testing.T) {
	if race.Enabled {
		t.Skip("a serial census: the detector only slows it")
	}
	real24 := []pgen.Config{pgen.DefaultConfig("illcond", pgen.Real, 24, 24, 3)}
	real128 := []pgen.Config{pgen.DefaultConfig("illcond", pgen.Real, 128, 128, 3)}
	var classes []censusClass
	for _, class := range []pgen.Class{pgen.Fake, pgen.Real} {
		for _, size := range []int{32, 64, 128} {
			classes = append(classes, censusClass{
				name: fmt.Sprintf("%v/%dum", class, size), decks: pgenDecks(class, size), converged: true,
			})
		}
	}
	classes = append(classes,
		// The FuzzParseSPICE seeds that pass Admit.
		censusClass{name: "fuzz-corpus/12um", converged: true, decks: []pgen.Config{
			pgen.DefaultConfig("corpus", pgen.Fake, 12, 12, 1), pgen.DefaultConfig("corpus", pgen.Fake, 12, 12, 2)}},
		censusClass{name: "contrast-1e6/24um", decks: real24, edit: contrast(1e6), converged: true},
		censusClass{name: "contrast-1e10/24um", decks: real24, edit: contrast(1e10), converged: true},
		censusClass{name: "contrast-1e12/24um", decks: real24, edit: contrast(1e12), converged: true},
		// The three stop at the 1000-iteration cap with residuals of
		// 0.04–4.1, and rung 0 serves them.
		censusClass{name: "contrast-1e6/128um", decks: real128, edit: contrast(1e6)},
		censusClass{name: "contrast-1e10/128um", decks: real128, edit: contrast(1e10)},
		censusClass{name: "contrast-1e12/128um", decks: real128, edit: contrast(1e12)},
		censusClass{name: "load 1e308k", decks: real24, edit: overflow(spice.CurrentSource, "1e308k"),
			rejected: circuit.IssueNonFinite},
		censusClass{name: "resistor 1e-300f", decks: real24, edit: overflow(spice.Resistor, "1e-300f"),
			rejected: circuit.IssueNonFinite},
		censusClass{name: "resistor 1e308k", decks: real24, edit: overflow(spice.Resistor, "1e308k"),
			rejected: circuit.IssueNonFinite},
	)

	type mode struct {
		name  string
		want  string // the serving rung
		solve func(ctx context.Context, sys *circuit.System, x []float64) error
	}
	var modes []mode
	for k := 1; k <= 10; k++ {
		for _, precond := range []string{"amg", "ssor"} {
			want := plan.RungAMG
			if precond == "ssor" {
				want = plan.RungSSOR
			}
			modes = append(modes, mode{name: fmt.Sprintf("budgeted k=%d %s", k, precond), want: want,
				solve: func(ctx context.Context, sys *circuit.System, x []float64) error {
					_, err := plan.Numerical(ctx, sys, x, plan.Solve{Iters: k, Precond: precond})
					return err
				}})
		}
		modes = append(modes, mode{name: fmt.Sprintf("rough ladder k=%d", k), want: plan.RungRough,
			solve: func(ctx context.Context, sys *circuit.System, x []float64) error {
				return plan.RoughLadder(ctx, sys, x, k)
			}})
	}

	// served runs one solve under its own recorder and returns the one
	// degradation record it leaves.
	served := func(t *testing.T, solve func(ctx context.Context) error) obs.Degradation {
		t.Helper()
		rec := obs.NewRecorder()
		if err := solve(obs.WithRecorder(context.Background(), rec)); err != nil {
			t.Fatal(err)
		}
		degs := rec.Manifest("census", nil).Degradations
		if len(degs) != 1 {
			t.Fatalf("want one degradation record, got %+v", degs)
		}
		return degs[0]
	}
	check := func(t *testing.T, mode string, deg obs.Degradation, want string) {
		t.Helper()
		if deg.Rung != want || deg.RungIndex != 0 || len(deg.Attempts) != 1 {
			t.Errorf("%s: served by %q at index %d after %d attempt(s), want %q at index 0",
				mode, deg.Rung, deg.RungIndex, len(deg.Attempts), want)
		}
	}

	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			for _, cfg := range c.decks {
				d, err := pgen.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.edit != nil {
					c.edit(d.Netlist)
				}
				nw, err := circuit.Admit(d.Netlist)
				if c.rejected != "" {
					var de *circuit.DeckError
					if !errors.As(err, &de) || de.Codes()[0] != c.rejected {
						t.Fatalf("seed %d: Admit: %v, want %s first", cfg.Seed, err, c.rejected)
					}
					continue
				}
				if err != nil {
					t.Fatalf("seed %d: Admit: %v", cfg.Seed, err)
				}
				sys, err := nw.Assemble()
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, sys.N())

				converged := false
				deg := served(t, func(ctx context.Context) error {
					res, err := plan.Numerical(ctx, sys, x, plan.Solve{})
					converged = res.Converged
					return err
				})
				check(t, fmt.Sprintf("seed %d converged", cfg.Seed), deg, plan.RungAMG)
				if converged != c.converged {
					t.Errorf("seed %d: converged solve reports Converged %v, census found %v", cfg.Seed, converged, c.converged)
				}
				for _, m := range modes {
					deg := served(t, func(ctx context.Context) error { return m.solve(ctx, sys, x) })
					check(t, fmt.Sprintf("seed %d %s", cfg.Seed, m.name), deg, m.want)
				}
			}
		})
	}
}
