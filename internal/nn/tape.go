package nn

// Tape owns one forward pass. A recording tape (NewTape) keeps the
// backward closures of the ops run on it so Backward can replay their
// adjoints in reverse; create one per training step. An inference tape
// (NewEvalTape) records nothing and owns the pass's memory: every op
// output is lent from one block it keeps between passes, so a tensor an
// op returns — the result of a model's Forward(tp, x) too — belongs to
// tp and dies at tp.Reset(); copy out what must outlive the pass. A nil
// tape is inference on the heap: nothing recorded, every output its own
// allocation and, as on a recording tape, the caller's. A tape serves
// one pass at a time.
type Tape struct {
	steps []func()

	eval  bool      // inference tape: record is a no-op, result lends
	block []float64 // what an inference tape lends from
	used  int       // floats asked for since Reset, overflow included
	cols  []float64 // conv2D's column panel (recording tapes keep one too)
}

// NewTape returns an empty recording tape.
func NewTape() *Tape { return &Tape{} }

// NewEvalTape returns an inference tape. Its first pass runs on the
// heap; Reset then sizes the block to it, so from the second pass of a
// shape on no activation is allocated and nothing is zeroed.
func NewEvalTape() *Tape { return &Tape{eval: true} }

// recording reports whether ops must keep what Backward needs.
func (t *Tape) recording() bool { return t != nil && !t.eval }

// record registers a backward closure on a recording tape.
func (t *Tape) record(fn func()) {
	if t.recording() {
		t.steps = append(t.steps, fn)
	}
}

// Reset takes back every tensor lent since the last Reset and, when the
// pass overflowed the block, grows the block to the pass's high-water
// mark. Only inference tapes are reset; a recording tape is dropped.
func (t *Tape) Reset() {
	if t.used > len(t.block) {
		t.block = make([]float64, t.used)
	}
	t.used = 0
}

// lend returns n floats of unspecified content for an undifferentiated op
// output: an inference tape's block, or the heap (nil tape, block spent).
func (t *Tape) lend(n int) []float64 {
	if t == nil {
		return make([]float64, n)
	}
	start := t.used
	t.used += n
	if t.used > len(t.block) {
		return make([]float64, n)
	}
	return t.block[start:t.used:t.used]
}

// panel returns conv2D's n-float column panel, contents unspecified.
// The tape keeps it between convolutions; a nil tape makes one.
func (t *Tape) panel(n int) []float64 {
	if t == nil {
		return make([]float64, n)
	}
	if cap(t.cols) < n {
		t.cols = make([]float64, n)
	}
	return t.cols[:n]
}

// Backward seeds d(loss)/d(loss)=1 on the scalar loss tensor and runs
// all recorded adjoints in reverse. Parameter gradients accumulate
// into their Grad buffers.
func (t *Tape) Backward(loss *Tensor) {
	if loss.Size() != 1 {
		panic("nn: Backward requires a scalar loss")
	}
	loss.ensureGrad()
	loss.Grad[0] = 1
	for i := len(t.steps) - 1; i >= 0; i-- {
		t.steps[i]()
	}
}

// result builds an op's output tensor: zeroed, with a gradient buffer
// when any input tracks gradients, on a recording tape; otherwise of
// unspecified contents (see lend) — the op must write every element.
func result(tp *Tape, shape []int, inputs ...*Tensor) *Tensor {
	if !tp.recording() {
		out := &Tensor{Shape: append([]int(nil), shape...)}
		out.Data = tp.lend(out.Size())
		return out
	}
	out := NewTensor(shape...)
	for _, in := range inputs {
		if in.needsGrad {
			out.needsGrad = true
			out.ensureGrad()
			break
		}
	}
	return out
}
