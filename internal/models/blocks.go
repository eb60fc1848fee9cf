// Package models implements the ML model zoo of the IR-Fusion paper
// under one engine: the proposed Inception Attention U-Net plus the
// six baselines it is compared against in Table I (IREDGe, MAVIREC,
// IRPnet, PGAU, MAUnet, and the ICCAD-2023 contest winner). All
// models share the Model interface and are registered by name.
package models

import (
	"math/rand"

	"irfusion/internal/nn"
)

// Model is an image-to-image IR-drop predictor.
type Model interface {
	// Name returns the registry name.
	Name() string
	// Forward maps an input feature tensor [N,C,H,W] to a drop map
	// [N,1,H,W]. H and W must be divisible by 2^Depth of the model.
	// Ownership: on an inference tape (nn.NewEvalTape) the result belongs
	// to tp and dies at tp.Reset(); on any other tape it is the caller's.
	Forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor
	// Params returns all trainable tensors in a stable order.
	Params() []*nn.Tensor
	// State returns the non-trainable state vectors (batch-norm
	// running statistics) in a stable order, for checkpointing.
	State() [][]float64
	// SetTraining toggles batch-norm train/eval behaviour.
	SetTraining(bool)
}

// convBNReLU is the conv → batch-norm → ReLU unit used everywhere.
type convBNReLU struct {
	conv *nn.Conv2d
	bn   *nn.BatchNorm2d
}

func newConvBNReLU(rng *rand.Rand, in, out, k, stride, pad int) *convBNReLU {
	return &convBNReLU{
		conv: nn.NewConv2d(rng, in, out, k, stride, pad),
		bn:   nn.NewBatchNorm2d(out),
	}
}

func (b *convBNReLU) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	return b.bn.ForwardReLU(tp, b.conv.Forward(tp, x))
}

func (b *convBNReLU) params() []*nn.Tensor {
	return append(b.conv.Params(), b.bn.Params()...)
}

func (b *convBNReLU) setTraining(v bool) { b.bn.SetTraining(v) }

func (b *convBNReLU) state() [][]float64 { return b.bn.StateVectors() }

// rectBNReLU is the rectangular-kernel variant (Inception B/C).
type rectBNReLU struct {
	conv *nn.Conv2dRect
	bn   *nn.BatchNorm2d
}

func newRectBNReLU(rng *rand.Rand, in, out, kh, kw, padH, padW int) *rectBNReLU {
	return &rectBNReLU{
		conv: nn.NewConv2dRect(rng, in, out, kh, kw, 1, padH, padW),
		bn:   nn.NewBatchNorm2d(out),
	}
}

func (b *rectBNReLU) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	return b.bn.ForwardReLU(tp, b.conv.Forward(tp, x))
}

func (b *rectBNReLU) params() []*nn.Tensor {
	return append(b.conv.Params(), b.bn.Params()...)
}

func (b *rectBNReLU) setTraining(v bool) { b.bn.SetTraining(v) }

func (b *rectBNReLU) state() [][]float64 { return b.bn.StateVectors() }

// doubleConv is two conv-BN-ReLU units, the standard U-Net stage.
type doubleConv struct {
	a, b *convBNReLU
}

func newDoubleConv(rng *rand.Rand, in, out int) *doubleConv {
	return &doubleConv{
		a: newConvBNReLU(rng, in, out, 3, 1, 1),
		b: newConvBNReLU(rng, out, out, 3, 1, 1),
	}
}

func (d *doubleConv) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	return d.b.forward(tp, d.a.forward(tp, x))
}

func (d *doubleConv) params() []*nn.Tensor {
	return append(d.a.params(), d.b.params()...)
}

func (d *doubleConv) setTraining(v bool) {
	d.a.setTraining(v)
	d.b.setTraining(v)
}

func (d *doubleConv) state() [][]float64 {
	return append(d.a.state(), d.b.state()...)
}

// inceptionKind selects the branch topology.
type inceptionKind int

const (
	inceptionA inceptionKind = iota // 3×3 stacks (early layers)
	inceptionB                      // factorized 1×7/7×1 (mid layers)
	inceptionC                      // expanded 1×3/3×1 (late layers)
)

// inception is a four-branch Inception block mapping in → out
// channels; out must be divisible by 4. Branches follow Inception-v4
// in spirit at reduced width:
//
//	A: 1×1 | 1×1→3×3 | 1×1→3×3→3×3 | avgpool→1×1
//	B: 1×1 | 1×1→1×7→7×1 | 1×1→7×1→1×7 | avgpool→1×1
//	C: 1×1 | 1×1→1×3 | 1×1→3×1 | avgpool→1×1
type inception struct {
	kind inceptionKind
	b1   *convBNReLU
	b2   []interface {
		forward(*nn.Tape, *nn.Tensor) *nn.Tensor
	}
	b3 []interface {
		forward(*nn.Tape, *nn.Tensor) *nn.Tensor
	}
	b4  *convBNReLU
	all []interface {
		params() []*nn.Tensor
		state() [][]float64
		setTraining(bool)
	}
}

func newInception(rng *rand.Rand, kind inceptionKind, in, out int) *inception {
	if out%4 != 0 {
		panic("models: inception output channels must be divisible by 4")
	}
	q := out / 4
	blk := &inception{kind: kind}
	add := func(c interface {
		params() []*nn.Tensor
		state() [][]float64
		setTraining(bool)
	}) {
		blk.all = append(blk.all, c)
	}
	blk.b1 = newConvBNReLU(rng, in, q, 1, 1, 0)
	add(blk.b1)
	blk.b4 = newConvBNReLU(rng, in, q, 1, 1, 0)
	add(blk.b4)

	push := func(dst *[]interface {
		forward(*nn.Tape, *nn.Tensor) *nn.Tensor
	}, c interface {
		forward(*nn.Tape, *nn.Tensor) *nn.Tensor
		params() []*nn.Tensor
		state() [][]float64
		setTraining(bool)
	}) {
		*dst = append(*dst, c)
		add(c)
	}

	switch kind {
	case inceptionA:
		push(&blk.b2, newConvBNReLU(rng, in, q, 1, 1, 0))
		push(&blk.b2, newConvBNReLU(rng, q, q, 3, 1, 1))
		push(&blk.b3, newConvBNReLU(rng, in, q, 1, 1, 0))
		push(&blk.b3, newConvBNReLU(rng, q, q, 3, 1, 1))
		push(&blk.b3, newConvBNReLU(rng, q, q, 3, 1, 1))
	case inceptionB:
		push(&blk.b2, newConvBNReLU(rng, in, q, 1, 1, 0))
		push(&blk.b2, newRectBNReLU(rng, q, q, 1, 7, 0, 3))
		push(&blk.b2, newRectBNReLU(rng, q, q, 7, 1, 3, 0))
		push(&blk.b3, newConvBNReLU(rng, in, q, 1, 1, 0))
		push(&blk.b3, newRectBNReLU(rng, q, q, 7, 1, 3, 0))
		push(&blk.b3, newRectBNReLU(rng, q, q, 1, 7, 0, 3))
	case inceptionC:
		push(&blk.b2, newConvBNReLU(rng, in, q, 1, 1, 0))
		push(&blk.b2, newRectBNReLU(rng, q, q, 1, 3, 0, 1))
		push(&blk.b3, newConvBNReLU(rng, in, q, 1, 1, 0))
		push(&blk.b3, newRectBNReLU(rng, q, q, 3, 1, 1, 0))
	}
	return blk
}

func (b *inception) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	run := func(chain []interface {
		forward(*nn.Tape, *nn.Tensor) *nn.Tensor
	}) *nn.Tensor {
		h := x
		for _, c := range chain {
			h = c.forward(tp, h)
		}
		return h
	}
	y1 := b.b1.forward(tp, x)
	y2 := run(b.b2)
	y3 := run(b.b3)
	y4 := b.b4.forward(tp, nn.AvgPool3x3Same(tp, x))
	return nn.Concat(tp, y1, y2, y3, y4)
}

func (b *inception) params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, c := range b.all {
		ps = append(ps, c.params()...)
	}
	return ps
}

func (b *inception) setTraining(v bool) {
	for _, c := range b.all {
		c.setTraining(v)
	}
}

func (b *inception) state() [][]float64 {
	var st [][]float64
	for _, c := range b.all {
		st = append(st, c.state()...)
	}
	return st
}

// cbam is the Convolutional Block Attention Module: channel attention
// (global avg+max pooled MLP) followed by spatial attention (7×7 conv
// over channel-pooled planes).
type cbam struct {
	c       int
	fc1     *nn.Tensor // [C/r, C]
	fc2     *nn.Tensor // [C, C/r]
	spatial *nn.Conv2d // 2 -> 1, 7x7
}

func newCBAM(rng *rand.Rand, c, reduction int) *cbam {
	r := c / reduction
	if r < 1 {
		r = 1
	}
	fc1 := nn.NewParam(r, c)
	fc1.XavierInit(rng, c, r)
	fc2 := nn.NewParam(c, r)
	fc2.XavierInit(rng, r, c)
	return &cbam{
		c:       c,
		fc1:     fc1,
		fc2:     fc2,
		spatial: nn.NewConv2d(rng, 2, 1, 7, 1, 3),
	}
}

func (m *cbam) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	n := x.Dim(0)
	// Channel attention: shared MLP over avg- and max-pooled stats.
	avg := nn.GlobalAvgPool(tp, x).Reshape(n, m.c)
	mx := nn.GlobalMaxPool(tp, x).Reshape(n, m.c)
	mlp := func(v *nn.Tensor) *nn.Tensor {
		return nn.Linear(tp, nn.ReLU(tp, nn.Linear(tp, v, m.fc1, nil)), m.fc2, nil)
	}
	gate := nn.Sigmoid(tp, nn.Add(tp, mlp(avg), mlp(mx))).Reshape(n, m.c, 1, 1)
	xc := nn.MulChannel(tp, x, gate)
	// Spatial attention over channel mean/max planes.
	plane := nn.Concat(tp, nn.ChannelMean(tp, xc), nn.ChannelMax(tp, xc))
	sGate := nn.Sigmoid(tp, m.spatial.Forward(tp, plane))
	return nn.MulSpatial(tp, xc, sGate)
}

func (m *cbam) params() []*nn.Tensor {
	return append([]*nn.Tensor{m.fc1, m.fc2}, m.spatial.Params()...)
}

func (m *cbam) setTraining(bool) {}

func (m *cbam) state() [][]float64 { return nil }

// attnGate is the additive attention gate of Attention U-Net: the
// gating signal g (decoder) modulates the skip connection x
// (encoder); both must share spatial size.
type attnGate struct {
	wg, wx, psi *nn.Conv2d
}

func newAttnGate(rng *rand.Rand, gc, xc, inter int) *attnGate {
	return &attnGate{
		wg:  nn.NewConv2d(rng, gc, inter, 1, 1, 0),
		wx:  nn.NewConv2d(rng, xc, inter, 1, 1, 0),
		psi: nn.NewConv2d(rng, inter, 1, 1, 1, 0),
	}
}

func (a *attnGate) forward(tp *nn.Tape, g, x *nn.Tensor) *nn.Tensor {
	s := nn.ReLU(tp, nn.Add(tp, a.wg.Forward(tp, g), a.wx.Forward(tp, x)))
	alpha := nn.Sigmoid(tp, a.psi.Forward(tp, s))
	return nn.MulSpatial(tp, x, alpha)
}

func (a *attnGate) params() []*nn.Tensor {
	ps := append(a.wg.Params(), a.wx.Params()...)
	return append(ps, a.psi.Params()...)
}

// seBlock is squeeze-and-excitation channel attention (used by
// MAUnet's multiscale attention decoder).
type seBlock struct {
	c        int
	fc1, fc2 *nn.Tensor
}

func newSE(rng *rand.Rand, c, reduction int) *seBlock {
	r := c / reduction
	if r < 1 {
		r = 1
	}
	fc1 := nn.NewParam(r, c)
	fc1.XavierInit(rng, c, r)
	fc2 := nn.NewParam(c, r)
	fc2.XavierInit(rng, r, c)
	return &seBlock{c: c, fc1: fc1, fc2: fc2}
}

func (s *seBlock) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	n := x.Dim(0)
	sq := nn.GlobalAvgPool(tp, x).Reshape(n, s.c)
	gate := nn.Sigmoid(tp, nn.Linear(tp, nn.ReLU(tp, nn.Linear(tp, sq, s.fc1, nil)), s.fc2, nil))
	return nn.MulChannel(tp, x, gate.Reshape(n, s.c, 1, 1))
}

func (s *seBlock) params() []*nn.Tensor { return []*nn.Tensor{s.fc1, s.fc2} }
