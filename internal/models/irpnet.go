package models

import (
	"math/rand"

	"irfusion/internal/nn"
)

// irpnet is the pyramid model of IRPnet: a strided-conv encoder, a
// pyramid-pooling context module capturing global features, and a
// decoder. It trains on the same hotspot-weighted loss as every other
// model (core.Train).
type irpnet struct {
	cfg Config

	stem   *convBNReLU
	down1  *convBNReLU // stride 2
	down2  *convBNReLU // stride 2
	pyrIdn *convBNReLU // identity pyramid level (1×1)
	pyrMid *convBNReLU // half-resolution level
	pyrGlb *convBNReLU // global level
	fuse   *convBNReLU
	up1    *convBNReLU
	up2    *convBNReLU
	head   *nn.Conv2d
}

// newIRPNet builds IRPnet.
func newIRPNet(cfg Config) Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := cfg.Base
	return &irpnet{
		cfg:    cfg,
		stem:   newConvBNReLU(rng, cfg.InChannels, b, 3, 1, 1),
		down1:  newConvBNReLU(rng, b, 2*b, 3, 2, 1),
		down2:  newConvBNReLU(rng, 2*b, 4*b, 3, 2, 1),
		pyrIdn: newConvBNReLU(rng, 4*b, b, 1, 1, 0),
		pyrMid: newConvBNReLU(rng, 4*b, b, 1, 1, 0),
		pyrGlb: newConvBNReLU(rng, 4*b, b, 1, 1, 0),
		fuse:   newConvBNReLU(rng, 4*b+3*b, 4*b, 3, 1, 1),
		up1:    newConvBNReLU(rng, 4*b, 2*b, 3, 1, 1),
		up2:    newConvBNReLU(rng, 2*b, b, 3, 1, 1),
		head:   nn.NewConv2d(rng, b, 1, 1, 1, 0),
	}
}

// Name implements Model.
func (m *irpnet) Name() string { return "IRPnet" }

// Forward implements Model.
func (m *irpnet) Forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	h := m.stem.forward(tp, x)
	h = m.down1.forward(tp, h)
	h = m.down2.forward(tp, h)
	_, _, fh, fw := h.Dims4()

	idn := m.pyrIdn.forward(tp, h)
	mid := nn.Upsample2x(tp, m.pyrMid.forward(tp, nn.AvgPool2x2(tp, h)))
	glbPooled := m.pyrGlb.forward(tp, nn.GlobalAvgPool(tp, h))
	glb := nn.BroadcastHW(tp, glbPooled, fh, fw)
	h = m.fuse.forward(tp, nn.Concat(tp, h, idn, mid, glb))

	h = m.up1.forward(tp, nn.Upsample2x(tp, h))
	h = m.up2.forward(tp, nn.Upsample2x(tp, h))
	return m.head.Forward(tp, h)
}

// Params implements Model.
func (m *irpnet) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, s := range []*convBNReLU{m.stem, m.down1, m.down2, m.pyrIdn, m.pyrMid, m.pyrGlb, m.fuse, m.up1, m.up2} {
		ps = append(ps, s.params()...)
	}
	return append(ps, m.head.Params()...)
}

// SetTraining implements Model.
func (m *irpnet) SetTraining(v bool) {
	for _, s := range []*convBNReLU{m.stem, m.down1, m.down2, m.pyrIdn, m.pyrMid, m.pyrGlb, m.fuse, m.up1, m.up2} {
		s.setTraining(v)
	}
}

// State implements Model.
func (m *irpnet) State() [][]float64 {
	var st [][]float64
	for _, s := range []*convBNReLU{m.stem, m.down1, m.down2, m.pyrIdn, m.pyrMid, m.pyrGlb, m.fuse, m.up1, m.up2} {
		st = append(st, s.state()...)
	}
	return st
}

// contestWinner is a plain convolutional encoder-decoder without skip
// connections, standing in for the ICCAD-2023 first-place entry.
type contestWinner struct {
	cfg    Config
	stages []*convBNReLU
	head   *nn.Conv2d
}

// newContestWinner builds the contest-winner baseline.
func newContestWinner(cfg Config) Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := cfg.Base
	return &contestWinner{
		cfg: cfg,
		stages: []*convBNReLU{
			newConvBNReLU(rng, cfg.InChannels, b, 3, 1, 1),
			newConvBNReLU(rng, b, 2*b, 3, 2, 1),
			newConvBNReLU(rng, 2*b, 4*b, 3, 2, 1),
			newConvBNReLU(rng, 4*b, 4*b, 3, 1, 1),
			newConvBNReLU(rng, 4*b, 2*b, 3, 1, 1), // after upsample
			newConvBNReLU(rng, 2*b, b, 3, 1, 1),   // after upsample
		},
		head: nn.NewConv2d(rng, b, 1, 1, 1, 0),
	}
}

// Name implements Model.
func (m *contestWinner) Name() string { return "ContestWinner" }

// Forward implements Model.
func (m *contestWinner) Forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	h := m.stages[0].forward(tp, x)
	h = m.stages[1].forward(tp, h)
	h = m.stages[2].forward(tp, h)
	h = m.stages[3].forward(tp, h)
	h = m.stages[4].forward(tp, nn.Upsample2x(tp, h))
	h = m.stages[5].forward(tp, nn.Upsample2x(tp, h))
	return m.head.Forward(tp, h)
}

// Params implements Model.
func (m *contestWinner) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, s := range m.stages {
		ps = append(ps, s.params()...)
	}
	return append(ps, m.head.Params()...)
}

// SetTraining implements Model.
func (m *contestWinner) SetTraining(v bool) {
	for _, s := range m.stages {
		s.setTraining(v)
	}
}

// State implements Model.
func (m *contestWinner) State() [][]float64 {
	var st [][]float64
	for _, s := range m.stages {
		st = append(st, s.state()...)
	}
	return st
}
