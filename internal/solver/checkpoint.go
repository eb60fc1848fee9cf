package solver

// Solver checkpointing: a PCG run can periodically snapshot its
// current iterate so a crashed or handed-off solve resumes from the
// last snapshot instead of iteration 0. The mechanism deliberately
// reuses the warm-start contract of the artifact cache
// (docs/CACHING.md): a checkpoint's X is just an initial guess,
// restored through flexible PCG — which tolerates a different (even
// foreign) preconditioner — and validated by the same residual-guard
// idea, so a corrupt or stale checkpoint degrades to a cold solve,
// never to a wrong answer.

// historyTailLen bounds the residual-history slice carried by one
// checkpoint: enough to see the convergence trend on restore without
// copying a thousand-entry trace every interval.
const historyTailLen = 8

// Checkpoint is one solver snapshot: the iterate, how far the solve
// had gotten, and the solve configuration that produced it — enough
// for a restarted process to decide whether (and how) to resume.
type Checkpoint struct {
	// X is a copy of the iterate at snapshot time.
	X []float64
	// Iter is the completed-iteration count.
	Iter int
	// Residual is the relative residual at snapshot time.
	Residual float64
	// HistoryTail is the last few recorded relative residuals (at most
	// historyTailLen entries), newest last.
	HistoryTail []float64
	// Tol, MaxIter, Flexible, Label mirror the Options of the
	// solve that produced the snapshot.
	Tol      float64
	MaxIter  int
	Flexible bool
	Label    string
}

// CheckpointSink receives checkpoints as a solve progresses. Save is
// called from inside the iteration loop every Options.CheckpointEvery
// iterations; implementations own the Checkpoint (its slices are
// freshly copied) and must not block longer than they can afford to
// stall the solve.
type CheckpointSink interface {
	SaveCheckpoint(cp Checkpoint)
}

// snapshot builds a Checkpoint from the current solve state, copying
// x and the history tail so the sink's view is stable while the solve
// keeps iterating.
func snapshot(x []float64, iter int, rel float64, history []float64, opts Options) Checkpoint {
	cp := Checkpoint{
		X:        append([]float64(nil), x...),
		Iter:     iter,
		Residual: rel,
		Tol:      opts.Tol,
		MaxIter:  opts.MaxIter,
		Flexible: opts.Flexible,
		Label:    opts.Label,
	}
	if n := len(history); n > 0 {
		tail := n - historyTailLen
		if tail < 0 {
			tail = 0
		}
		cp.HistoryTail = append([]float64(nil), history[tail:]...)
	}
	return cp
}
