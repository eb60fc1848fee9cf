package solver

import "testing"

// sinkRecorder collects every checkpoint a solve hands over.
type sinkRecorder struct{ cps []Checkpoint }

func (s *sinkRecorder) SaveCheckpoint(cp Checkpoint) { s.cps = append(s.cps, cp) }

// TestPCGCheckpointCadence: with CheckpointEvery set, PCGCtx must
// snapshot exactly every N-th completed iteration, each snapshot
// carrying an independent copy of the iterate, the solve options, and
// a bounded history tail.
func TestPCGCheckpointCadence(t *testing.T) {
	a, _, b := randomSystem(16, 16, 11)
	n := len(b)
	sink := &sinkRecorder{}
	x := make([]float64, n)
	const every = 8
	res, err := PCG(a, x, b, NewJacobi(a), Options{
		Tol: 1e-10, MaxIter: 2000, Record: true, Label: "ckpt-test",
		CheckpointEvery: every, CheckpointSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("solve did not converge (rel %v)", res.Residual)
	}
	want := res.Iterations / every
	if len(sink.cps) != want {
		t.Fatalf("got %d checkpoints over %d iterations, want %d (every %d)",
			len(sink.cps), res.Iterations, want, every)
	}
	for i, cp := range sink.cps {
		if cp.Iter != (i+1)*every {
			t.Errorf("checkpoint %d at iteration %d, want %d", i, cp.Iter, (i+1)*every)
		}
		if len(cp.X) != n {
			t.Errorf("checkpoint %d iterate length %d, want %d", i, len(cp.X), n)
		}
		if len(cp.HistoryTail) == 0 || len(cp.HistoryTail) > historyTailLen {
			t.Errorf("checkpoint %d history tail has %d entries, want 1..%d",
				i, len(cp.HistoryTail), historyTailLen)
		}
		if got := cp.HistoryTail[len(cp.HistoryTail)-1]; got != cp.Residual { //irfusion:exact the tail's newest entry is the snapshot residual by construction
			t.Errorf("checkpoint %d residual %g != newest tail entry %g", i, cp.Residual, got)
		}
		if cp.Tol != 1e-10 || cp.MaxIter != 2000 || cp.Label != "ckpt-test" { //irfusion:exact options are echoed verbatim into the snapshot
			t.Errorf("checkpoint %d options not echoed: %+v", i, cp)
		}
	}
	// Snapshots must be copies: the mid-solve iterate differs from the
	// final one unless the copy aliased the live buffer.
	first := sink.cps[0]
	same := true
	for i := range first.X {
		if first.X[i] != x[i] { //irfusion:exact aliasing check — identical bits at every index would mean the snapshot shares the live slice
			same = false
			break
		}
	}
	if same {
		t.Error("first checkpoint's iterate equals the converged iterate — snapshot did not copy")
	}
	// Residuals must improve across checkpoints (monotone to within the
	// usual PCG wobble of a couple orders).
	if last, firstR := sink.cps[len(sink.cps)-1].Residual, first.Residual; last >= firstR {
		t.Errorf("residual did not improve across checkpoints: %g → %g", firstR, last)
	}
}

// TestPCGCheckpointDisabled: no sink, or a non-positive interval,
// means no snapshots.
func TestPCGCheckpointDisabled(t *testing.T) {
	a, _, b := randomSystem(12, 12, 12)
	sink := &sinkRecorder{}
	x := make([]float64, len(b))
	if _, err := PCG(a, x, b, NewJacobi(a), Options{
		Tol: 1e-10, MaxIter: 2000, CheckpointEvery: 0, CheckpointSink: sink,
	}); err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, len(b))
	if _, err := PCG(a, x2, b, NewJacobi(a), Options{
		Tol: 1e-10, MaxIter: 2000, CheckpointEvery: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if len(sink.cps) != 0 {
		t.Fatalf("checkpointing disabled but %d snapshots taken", len(sink.cps))
	}
}
