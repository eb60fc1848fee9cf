// Package dataset assembles training and evaluation data for the ML
// stage: it solves generated designs for golden labels, runs the
// budgeted rough solves that feed the hierarchical numerical features,
// applies the paper's augmentation (three clockwise rotations),
// oversampling (fake ×2, real ×5) and predefined curriculum learning
// (fake designs are "easier", real designs "harder").
package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"irfusion/internal/circuit"
	"irfusion/internal/features"
	"irfusion/internal/grid"
	"irfusion/internal/nn"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
)

// Options controls sample construction.
type Options struct {
	// H, W is the raster resolution of feature maps and labels.
	H, W int
	// RoughIters is the solver iteration budget for the numerical
	// features (the paper's "few iterations").
	RoughIters int
	// IncludeNumerical gates the hierarchical numerical features
	// (ablation: "w/o Num. Solu.").
	IncludeNumerical bool
	// Hierarchical gates per-layer feature maps; when false, per-layer
	// maps are collapsed into single aggregates (ablation: "w/o
	// hierarchical features").
	Hierarchical bool
	// RoughSolver, when non-nil, replaces the built-in budgeted rough
	// solve (plan.Rough): it must fill x (length sys.N()) with an
	// approximate solution of sys.G·x = sys.I, or return an error to
	// fail the build. core.Analyzer.RoughSolver uses this hook to run
	// the same solve on the fused pipeline's ladder, which records the
	// serving rung in the manifest.
	RoughSolver func(ctx context.Context, sys *circuit.System, x []float64) error
}

// DefaultOptions returns the pipeline defaults at the given raster
// resolution.
func DefaultOptions(h, w int) Options {
	return Options{
		H: h, W: w,
		RoughIters:       2,
		IncludeNumerical: true,
		Hierarchical:     true,
	}
}

// Sample is one design prepared for the ML stage.
type Sample struct {
	Name     string
	Class    pgen.Class
	Features *features.Set
	Golden   *grid.Map
	// NumericalTime is the wall time of the rough solve plus feature
	// extraction, charged to the fusion pipeline's runtime.
	NumericalTime time.Duration
	// RoughBottom is the rasterized bottom-layer rough solution — the
	// zeroth-order prediction a pure numerical method would report.
	RoughBottom *grid.Map
}

// BuildCtx prepares a sample from a generated design: assemble, solve
// golden, rough-solve for numerical features, extract feature maps.
// Each step reports a stage timer to the recorder bound to ctx
// (dataset.assemble, dataset.golden_solve, dataset.features.structure,
// dataset.rough_solve, dataset.features.numerical), and the golden and
// rough solves contribute labeled convergence traces; concurrent builds
// stay isolated when each carries its own recorder. The solves run
// through solver.PCGCtx, so a cancelled context stops them
// mid-iteration. Every build runs cold: the label is one AMG-PCG solve
// from zero (plan.Golden), and an artifact cache bound to ctx is
// neither read nor written.
func BuildCtx(ctx context.Context, d *pgen.Design, opts Options) (*Sample, error) {
	return build(ctx, d, opts, true)
}

// BuildInferenceCtx is the build a fused analysis pays for: assembly,
// the budgeted rough solve and the feature maps — everything the model
// reads, and no label. The sample has a nil Golden and runs no converged
// solve; Analyzer.PredictCtx accepts it as it accepts a labelled one.
func BuildInferenceCtx(ctx context.Context, d *pgen.Design, opts Options) (*Sample, error) {
	return build(ctx, d, opts, false)
}

// build is the one build body: the inference build, plus — when label
// is set — the golden solve after assembly.
func build(ctx context.Context, d *pgen.Design, opts Options, label bool) (*Sample, error) {
	rec := obs.FromContext(ctx)
	st := rec.StartStage("dataset.assemble")
	nw := d.Network
	if nw == nil { // a design that was not admitted from a deck carries no network
		var err error
		if nw, err = circuit.FromNetlist(d.Netlist); err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", d.Name, err)
		}
	}
	sys, err := nw.Assemble()
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", d.Name, err)
	}
	st.End()

	s := &Sample{Name: d.Name, Class: d.Class}
	if label {
		st = rec.StartStage("dataset.golden_solve")
		gx := make([]float64, sys.N())
		if err := plan.Golden(ctx, sys, gx); err != nil {
			return nil, fmt.Errorf("dataset: %s: golden solve: %w", d.Name, err)
		}
		s.Golden = features.GoldenMap(nw, sys.FullDrops(gx), opts.H, opts.W)
		st.End()
	}

	start := time.Now()
	fs := &features.Set{}
	st = rec.StartStage("dataset.features.structure")
	struct_ := features.StructureFeatures(nw, opts.H, opts.W)
	if !opts.Hierarchical {
		struct_ = collapseLayers(struct_)
	}
	st.End()
	fs.Append(struct_)
	if opts.IncludeNumerical {
		st = rec.StartStage("dataset.rough_solve")
		rx := make([]float64, sys.N())
		if opts.RoughSolver != nil {
			err = opts.RoughSolver(ctx, sys, rx)
		} else {
			err = plan.Rough(ctx, sys, rx, opts.RoughIters)
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: rough solve: %w", d.Name, err)
		}
		st.End()
		st = rec.StartStage("dataset.features.numerical")
		full := sys.FullDrops(rx)
		num := features.NumericalFeatures(nw, full, opts.H, opts.W)
		if !opts.Hierarchical {
			num = collapseLayers(num)
		}
		fs.Append(num)
		s.RoughBottom = features.GoldenMap(nw, full, opts.H, opts.W)
		st.End()
	}
	s.NumericalTime = time.Since(start)
	s.Features = fs
	return s, nil
}

// collapseLayers merges per-layer maps (names with a _m<layer>
// suffix) into a single summed map per family, modelling the
// "PG as a whole map" view of prior work.
func collapseLayers(s *features.Set) *features.Set {
	out := &features.Set{}
	merged := map[string]*grid.Map{}
	var order []string
	for i, name := range s.Names {
		fam := name
		if idx := indexLayerSuffix(name); idx >= 0 {
			fam = name[:idx]
		}
		if m, ok := merged[fam]; ok {
			m.AddMap(s.Maps[i])
		} else {
			merged[fam] = s.Maps[i].Clone()
			order = append(order, fam)
		}
	}
	for _, fam := range order {
		out.Add(fam, merged[fam])
	}
	return out
}

// indexLayerSuffix returns the index of a trailing "_m<digits>" suffix
// or -1.
func indexLayerSuffix(name string) int {
	i := strings.LastIndex(name, "_m")
	if i < 0 || !isDigits(name[i+2:]) {
		return -1
	}
	return i
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// rotate returns a copy of the sample with every map rotated
// clockwise by 90°·quarter — the paper's augmentation treats each
// rotation as a new design.
func (s *Sample) rotate(quarter int) *Sample {
	fs := &features.Set{}
	for i, m := range s.Features.Maps {
		fs.Add(s.Features.Names[i], m.Rotate90(quarter))
	}
	out := &Sample{
		Name:          fmt.Sprintf("%s_rot%d", s.Name, (quarter%4+4)%4*90),
		Class:         s.Class,
		Features:      fs,
		Golden:        s.Golden.Rotate90(quarter),
		NumericalTime: s.NumericalTime,
	}
	if s.RoughBottom != nil {
		out.RoughBottom = s.RoughBottom.Rotate90(quarter)
	}
	return out
}

// Augment expands samples with the three non-trivial clockwise
// rotations, quadrupling the set.
func Augment(samples []*Sample) []*Sample {
	out := make([]*Sample, 0, 4*len(samples))
	for _, s := range samples {
		out = append(out, s)
		for q := 1; q <= 3; q++ {
			out = append(out, s.rotate(q))
		}
	}
	return out
}

// Oversample repeats fake samples fakeTimes and real samples
// realTimes (the contest-setup oversampling: fake ×2, real ×5).
func Oversample(samples []*Sample, fakeTimes, realTimes int) []*Sample {
	var out []*Sample
	for _, s := range samples {
		times := fakeTimes
		if s.Class == pgen.Real {
			times = realTimes
		}
		for i := 0; i < times; i++ {
			out = append(out, s)
		}
	}
	return out
}

// ToTensors stacks samples into an input tensor [N,C,H,W] and a
// target tensor [N,1,H,W]. All samples must share channel count and
// resolution, and carry a label.
func ToTensors(samples []*Sample) (*nn.Tensor, *nn.Tensor) {
	x := InputTensor(samples)
	_, _, h, w := x.Dims4()
	y := nn.NewTensor(len(samples), 1, h, w)
	hw := h * w
	for ni, s := range samples {
		if s.Golden.H != h || s.Golden.W != w {
			panic("dataset: inconsistent sample shapes")
		}
		copy(y.Data[ni*hw:(ni+1)*hw], s.Golden.Data)
	}
	return x, y
}

// InputTensor stacks the samples' feature maps into the model input
// [N,C,H,W], taking the resolution from the maps themselves, so it
// serves labelled and label-free (BuildInferenceCtx) samples alike.
func InputTensor(samples []*Sample) *nn.Tensor {
	if len(samples) == 0 {
		panic("dataset: InputTensor with no samples")
	}
	first := samples[0].Features
	c := first.Channels()
	h, w := first.Maps[0].H, first.Maps[0].W
	x := nn.NewTensor(len(samples), c, h, w)
	hw := h * w
	for ni, s := range samples {
		if s.Features.Channels() != c {
			panic("dataset: inconsistent sample shapes")
		}
		for ci, m := range s.Features.Maps {
			if m.H != h || m.W != w {
				panic("dataset: inconsistent sample shapes")
			}
			copy(x.Data[(ni*c+ci)*hw:(ni*c+ci+1)*hw], m.Data)
		}
	}
	return x
}

// Normalizer rescales feature channels to comparable magnitudes using
// per-channel max-abs statistics gathered from the training set.
type Normalizer struct {
	Names []string
	Scale []float64
}

// FitNormalizer computes per-channel 1/max|v| scales over samples.
func FitNormalizer(samples []*Sample) *Normalizer {
	if len(samples) == 0 {
		panic("dataset: FitNormalizer with no samples")
	}
	c := samples[0].Features.Channels()
	n := &Normalizer{
		Names: append([]string(nil), samples[0].Features.Names...),
		Scale: make([]float64, c),
	}
	maxAbs := make([]float64, c)
	for _, s := range samples {
		for ci, m := range s.Features.Maps {
			for _, v := range m.Data {
				if a := abs(v); a > maxAbs[ci] {
					maxAbs[ci] = a
				}
			}
		}
	}
	for ci, m := range maxAbs {
		if m > 0 {
			n.Scale[ci] = 1 / m
		} else {
			n.Scale[ci] = 1
		}
	}
	return n
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Apply scales an input tensor [N,C,H,W] in place and returns it.
func (n *Normalizer) Apply(x *nn.Tensor) *nn.Tensor {
	nb, c, h, w := x.Dims4()
	if c != len(n.Scale) {
		panic("dataset: normalizer channel mismatch")
	}
	hw := h * w
	for ni := 0; ni < nb; ni++ {
		for ci := 0; ci < c; ci++ {
			s := n.Scale[ci]
			base := (ni*c + ci) * hw
			for j := 0; j < hw; j++ {
				x.Data[base+j] *= s
			}
		}
	}
	return x
}

// Curriculum implements the paper's predefined curriculum: a
// difficulty measurer that ranks fake designs "easier" than real
// ones, and a continuous scheduler that mixes in the harder subset as
// epochs progress.
type Curriculum struct {
	// Ramp is the fraction of total epochs over which the hard subset
	// is linearly introduced (1.0 = fully ramped only at the end).
	Ramp float64
}

// Subset returns the training samples visible at the given epoch,
// shuffled with rng. Easy (fake) samples are always included; the
// fraction of hard (real) samples grows linearly until epoch ≥
// Ramp·total.
func (c Curriculum) Subset(samples []*Sample, epoch, totalEpochs int, rng *rand.Rand) []*Sample {
	ramp := c.Ramp
	if ramp <= 0 {
		ramp = 0.5
	}
	frac := 1.0
	if totalEpochs > 1 {
		progress := float64(epoch) / (ramp * float64(totalEpochs-1))
		if progress < 1 {
			frac = progress
		}
	}
	var easy, hard []*Sample
	for _, s := range samples {
		if s.Class == pgen.Real {
			hard = append(hard, s)
		} else {
			easy = append(easy, s)
		}
	}
	nHard := int(frac*float64(len(hard)) + 0.5)
	// Take a deterministic prefix of a shuffled copy so the subset
	// grows monotonically in expectation.
	hardCopy := append([]*Sample(nil), hard...)
	rng.Shuffle(len(hardCopy), func(i, j int) { hardCopy[i], hardCopy[j] = hardCopy[j], hardCopy[i] })
	out := append(append([]*Sample(nil), easy...), hardCopy[:nHard]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// GenerateSet produces nFake fake and nReal real designs at the given
// die size and builds samples for each. Seeds derive from seedBase so
// the whole set is reproducible. Every build reports to the recorder
// bound to ctx.
func GenerateSet(ctx context.Context, nFake, nReal, size int, seedBase int64, opts Options) ([]*Sample, error) {
	var out []*Sample
	for i := 0; i < nFake; i++ {
		d, err := pgen.Generate(pgen.DefaultConfig(fmt.Sprintf("fake%02d", i), pgen.Fake, size, size, seedBase+int64(i)))
		if err != nil {
			return nil, err
		}
		s, err := BuildCtx(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	for i := 0; i < nReal; i++ {
		d, err := pgen.Generate(pgen.DefaultConfig(fmt.Sprintf("real%02d", i), pgen.Real, size, size, seedBase+1000+int64(i)))
		if err != nil {
			return nil, err
		}
		s, err := BuildCtx(ctx, d, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// FilterFeatures returns copies of the samples keeping only feature
// channels whose name satisfies keep — used to hand the Table-I
// baselines their original (non-hierarchical, non-numerical) input
// images while IR-Fusion consumes the full fused set.
func FilterFeatures(samples []*Sample, keep func(name string) bool) []*Sample {
	out := make([]*Sample, 0, len(samples))
	for _, s := range samples {
		c := *s
		c.Features = s.Features.Filter(keep)
		out = append(out, &c)
	}
	return out
}

// RoughTensor stacks the samples' rasterized rough solutions into a
// [N,1,H,W] tensor (for residual-mode training). Panics when any
// sample lacks a rough map (numerical stage disabled).
func RoughTensor(samples []*Sample) *nn.Tensor {
	if len(samples) == 0 {
		panic("dataset: RoughTensor with no samples")
	}
	h, w := samples[0].Golden.H, samples[0].Golden.W
	out := nn.NewTensor(len(samples), 1, h, w)
	hw := h * w
	for ni, s := range samples {
		if s.RoughBottom == nil {
			panic("dataset: sample " + s.Name + " has no rough solution")
		}
		copy(out.Data[ni*hw:(ni+1)*hw], s.RoughBottom.Data)
	}
	return out
}
