package obs

import "context"

// Recorder-in-context plumbing. The context is the only way
// instrumented code finds a recorder: a CLI run binds one recorder for
// the whole process, a serving process binds one per request, and the
// context-aware entry points (solver.PCGCtx, dataset.BuildCtx, core's
// *Ctx methods) report to whatever FromContext returns — so concurrent
// requests never see each other's numbers.

// ctxKey is the private context key for a bound Recorder.
type ctxKey struct{}

// WithRecorder returns a copy of ctx carrying r. A nil r means
// "unobserved".
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder bound to ctx, or nil when none is
// bound (or ctx is nil). Every Recorder method is nil-safe.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
