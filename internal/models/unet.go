package models

import (
	"math/rand"

	"irfusion/internal/nn"
)

// Config parameterizes model construction. Base must be divisible by
// 4 when Inception blocks are used.
type Config struct {
	// InChannels is the number of input feature maps.
	InChannels int
	// Base is the encoder width at full resolution; each downsampling
	// doubles it.
	Base int
	// Depth is the number of 2× downsamplings (the paper uses 3).
	Depth int
	// Seed drives weight initialization.
	Seed int64
}

// stage is any encoder/decoder block.
type stage interface {
	forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor
	params() []*nn.Tensor
	state() [][]float64
	setTraining(bool)
}

// unetOpts select the architectural variations that distinguish the
// U-Net-family models of Table I.
type unetOpts struct {
	useInception    bool // Inception-A/B/C encoder stages (IR-Fusion)
	useAttnGate     bool // attention gates on skips (PGAU, IR-Fusion)
	useCBAM         bool // CBAM after decoder stages (IR-Fusion)
	useSE           bool // squeeze-excitation decoder attention (MAUnet)
	multiScaleInput bool // inject pooled input at deeper stages (MAUnet)
	tripleConv      bool // three convs per stage (MAVIREC's heavier stages)
}

// unet is the shared U-Net skeleton.
type unet struct {
	name   string
	cfg    Config
	opts   unetOpts
	enc    []stage // Depth encoder stages
	bottom stage
	dec    []stage // Depth decoder stages (deepest first at index Depth-1)
	gates  []*attnGate
	cbams  []*cbam
	ses    []*seBlock
	head   *nn.Conv2d
	all    []stage
}

// tripleStage wraps doubleConv with a third conv.
type tripleStage struct {
	d *doubleConv
	c *convBNReLU
}

func (s *tripleStage) forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	return s.c.forward(tp, s.d.forward(tp, x))
}
func (s *tripleStage) params() []*nn.Tensor { return append(s.d.params(), s.c.params()...) }
func (s *tripleStage) state() [][]float64   { return append(s.d.state(), s.c.state()...) }
func (s *tripleStage) setTraining(v bool)   { s.d.setTraining(v); s.c.setTraining(v) }

func newUnet(name string, cfg Config, opts unetOpts) *unet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Depth < 1 {
		panic("models: depth must be >= 1")
	}
	if opts.useInception && cfg.Base%4 != 0 {
		panic("models: inception requires Base divisible by 4")
	}
	u := &unet{name: name, cfg: cfg, opts: opts}
	width := func(i int) int { return cfg.Base << i }

	mkStage := func(i, in, out int, encoder bool) stage {
		if encoder && opts.useInception {
			kind := inceptionA
			switch {
			case i == 1:
				kind = inceptionB
			case i >= 2:
				kind = inceptionC
			}
			return newInception(rng, kind, in, out)
		}
		if opts.tripleConv {
			return &tripleStage{d: newDoubleConv(rng, in, out), c: newConvBNReLU(rng, out, out, 3, 1, 1)}
		}
		return newDoubleConv(rng, in, out)
	}

	for i := 0; i < cfg.Depth; i++ {
		in := cfg.InChannels
		if i > 0 {
			in = width(i - 1)
			if opts.multiScaleInput {
				in += cfg.InChannels
			}
		}
		s := mkStage(i, in, width(i), true)
		u.enc = append(u.enc, s)
		u.all = append(u.all, s)
	}
	u.bottom = mkStage(cfg.Depth, width(cfg.Depth-1), width(cfg.Depth), true)
	u.all = append(u.all, u.bottom)

	for i := 0; i < cfg.Depth; i++ {
		in := width(i+1) + width(i) // upsampled deeper features + skip
		s := mkStage(i, in, width(i), false)
		u.dec = append(u.dec, s)
		u.all = append(u.all, s)
		if opts.useAttnGate {
			u.gates = append(u.gates, newAttnGate(rng, width(i+1), width(i), width(i)))
		}
		if opts.useCBAM {
			u.cbams = append(u.cbams, newCBAM(rng, width(i), 4))
		}
		if opts.useSE {
			u.ses = append(u.ses, newSE(rng, width(i), 4))
		}
	}
	u.head = nn.NewConv2d(rng, width(0), 1, 1, 1, 0)
	return u
}

// Name implements Model.
func (u *unet) Name() string { return u.name }

// Forward implements Model.
func (u *unet) Forward(tp *nn.Tape, x *nn.Tensor) *nn.Tensor {
	// Pre-pool the raw input for multiscale injection.
	var pooled []*nn.Tensor
	if u.opts.multiScaleInput {
		pooled = make([]*nn.Tensor, u.cfg.Depth)
		cur := x
		for i := 1; i < u.cfg.Depth; i++ {
			cur = nn.AvgPool2x2(tp, cur)
			pooled[i] = cur
		}
	}
	skips := make([]*nn.Tensor, u.cfg.Depth)
	h := x
	for i, s := range u.enc {
		if i > 0 {
			h = nn.MaxPool2x2(tp, h)
			if u.opts.multiScaleInput {
				h = nn.Concat(tp, h, pooled[i])
			}
		}
		h = s.forward(tp, h)
		skips[i] = h
	}
	h = nn.MaxPool2x2(tp, h)
	h = u.bottom.forward(tp, h)
	for i := u.cfg.Depth - 1; i >= 0; i-- {
		up := nn.Upsample2x(tp, h)
		skip := skips[i]
		if u.opts.useAttnGate {
			skip = u.gates[i].forward(tp, up, skip)
		}
		h = u.dec[i].forward(tp, nn.Concat(tp, up, skip))
		if u.opts.useCBAM {
			h = u.cbams[i].forward(tp, h)
		}
		if u.opts.useSE {
			h = u.ses[i].forward(tp, h)
		}
	}
	return u.head.Forward(tp, h)
}

// Params implements Model.
func (u *unet) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, s := range u.all {
		ps = append(ps, s.params()...)
	}
	for _, g := range u.gates {
		ps = append(ps, g.params()...)
	}
	for _, c := range u.cbams {
		ps = append(ps, c.params()...)
	}
	for _, s := range u.ses {
		ps = append(ps, s.params()...)
	}
	return append(ps, u.head.Params()...)
}

// SetTraining implements Model.
func (u *unet) SetTraining(v bool) {
	for _, s := range u.all {
		s.setTraining(v)
	}
}

// State implements Model.
func (u *unet) State() [][]float64 {
	var st [][]float64
	for _, s := range u.all {
		st = append(st, s.state()...)
	}
	return st
}

// newIRFusionNet builds the paper's Inception Attention U-Net:
// Inception-A/B/C encoder, attention-gated skips, CBAM decoder,
// regression head.
func newIRFusionNet(cfg Config) Model {
	return newUnet("IR-Fusion", cfg, unetOpts{
		useInception: true, useAttnGate: true, useCBAM: true,
	})
}

// NewIRFusionNetAblated builds IR-Fusion with individual techniques
// removed, for the Fig-8 ablation.
func NewIRFusionNetAblated(cfg Config, inception, attnGate, cbamOn bool) Model {
	name := "IR-Fusion"
	switch {
	case !inception:
		name += "-noInception"
	case !cbamOn:
		name += "-noCBAM"
	}
	return newUnet(name, cfg, unetOpts{
		useInception: inception, useAttnGate: attnGate, useCBAM: cbamOn,
	})
}

// newIREDGe builds the plain encoder-decoder U-Net of IREDGe.
func newIREDGe(cfg Config) Model {
	return newUnet("IREDGe", cfg, unetOpts{})
}

// newMAVIREC builds MAVIREC's heavier (triple-conv stage) U-Net —
// the static-analysis collapse of its 3-D architecture.
func newMAVIREC(cfg Config) Model {
	return newUnet("MAVIREC", cfg, unetOpts{tripleConv: true})
}

// newPGAU builds the attention U-Net of PGAU (attention-gated skips,
// no Inception, no CBAM).
func newPGAU(cfg Config) Model {
	return newUnet("PGAU", cfg, unetOpts{useAttnGate: true})
}

// newMAUnet builds the multiscale attention U-Net of MAUnet:
// multiscale input injection plus SE channel attention in the decoder.
func newMAUnet(cfg Config) Model {
	return newUnet("MAUnet", cfg, unetOpts{multiScaleInput: true, useSE: true})
}
