package solver

// Checkpoint is the layout of one solver snapshot as
// cache.EncodeCheckpoint writes it. No solve takes snapshots any more:
// the type stays, bytes unchanged, only because the frozen
// _bench/layers.go encodes one to time a journal blob save; it goes
// with ROADMAP item 1(b).
type Checkpoint struct {
	X           []float64
	Iter        int
	Residual    float64
	HistoryTail []float64
	Tol         float64
	MaxIter     int
	Flexible    bool
	Label       string
}
