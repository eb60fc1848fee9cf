// Package plan is the one solve path of the repository: the rung table
// (rungs.go — every way a linear system gets an answer, each a plain
// function of one explicit solve state), the policy that turns a
// request into an ordered list of rung names, and the degradation
// ladder that runs such a list (this file). core's analyzers and the
// dataset builder are all lists of rung names over it, so the rough
// solve that builds training samples and the one that serves requests
// are the same code.
//
// The ladder tries each rung once, in order, and leaves a Degradation
// record in the run manifest saying exactly how the answer was
// produced. The rung ahead of a list's last is the cache's warm start;
// when it fails the solve falls to the next. The last rung is the
// one cold backend the request asked for: the rung census
// (census_test.go) finds no admitted deck that it fails, so no fallback
// stands behind it, and its failure exhausts the ladder — a 503
// carrying the trail when served. A failed rung is never tried
// again: every backend is a deterministic serial function of its input
// and resets its iterate before it runs, so a second attempt would
// repeat the first bit for bit.
package plan

import (
	"context"
	"errors"
	"fmt"

	"irfusion/internal/obs"
	"irfusion/internal/solver"
)

// ErrLadderExhausted is returned when every rung of a degradation
// ladder failed. The serving layer maps it to a structured 503.
var ErrLadderExhausted = errors.New("plan: degradation ladder exhausted")

// ladderRung is one rung of a degradation ladder.
type ladderRung struct {
	name string
	run  func(ctx context.Context) error
}

// aborts reports whether a rung failure ends the whole ladder:
// cancellation and deadlines are the caller's doing, and nothing
// downstream can help. Every other failure — breakdown, an indefinite
// operator, AMG setup — falls to the next rung.
func aborts(err error) bool {
	return errors.Is(err, solver.ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// runLadder tries each rung once, in order, until one serves. Every
// attempt is recorded as a Degradation on the recorder bound to ctx
// (obs.FromContext) — including clean first-rung successes, so a
// manifest always says how the answer was produced. On cancellation the
// context error is returned unwrapped of ladder semantics (callers and
// serve already classify it) and the trail so far is still recorded;
// when every rung fails the error wraps ErrLadderExhausted and the last
// rung error.
func runLadder(ctx context.Context, component string, rungs []ladderRung) error {
	if len(rungs) == 0 {
		return fmt.Errorf("%w: %s: no rungs configured", ErrLadderExhausted, component)
	}
	rec := obs.FromContext(ctx)
	deg := obs.Degradation{Component: component}
	var err error
	for idx, rung := range rungs {
		if err = rung.run(ctx); err == nil {
			deg.Attempts = append(deg.Attempts, obs.DegradationAttempt{Rung: rung.name})
			deg.Rung, deg.RungIndex = rung.name, idx
			rec.RecordDegradation(deg)
			return nil
		}
		deg.Attempts = append(deg.Attempts, obs.DegradationAttempt{Rung: rung.name, Error: err.Error()})
		if aborts(err) {
			deg.Exhausted = true
			rec.RecordDegradation(deg)
			return err
		}
	}
	deg.Exhausted = true
	rec.RecordDegradation(deg)
	return fmt.Errorf("%w: %s: last error: %w", ErrLadderExhausted, component, err)
}
