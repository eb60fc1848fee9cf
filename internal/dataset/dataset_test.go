package dataset

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/circuit"
	"irfusion/internal/grid"
	"irfusion/internal/metrics"
	"irfusion/internal/obs"
	"irfusion/internal/pgen"
	"irfusion/internal/plan"
)

func buildSample(t *testing.T, class pgen.Class, seed int64, opts Options) *Sample {
	t.Helper()
	d, err := pgen.Generate(pgen.DefaultConfig("t", class, 48, 48, seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildCtx(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildSampleBasics(t *testing.T) {
	s := buildSample(t, pgen.Fake, 1, DefaultOptions(48, 48))
	if s.Golden.Max() <= 0 {
		t.Error("golden empty")
	}
	if s.Features.Channels() < 8 {
		t.Errorf("expected rich feature set, got %d channels", s.Features.Channels())
	}
	if s.RoughBottom == nil {
		t.Fatal("rough bottom map missing")
	}
	if s.NumericalTime <= 0 {
		t.Error("numerical time not recorded")
	}
	// Numerical channels present.
	hasNum := false
	for _, n := range s.Features.Names {
		if strings.HasPrefix(n, "num_drop_") {
			hasNum = true
		}
	}
	if !hasNum {
		t.Error("numerical features missing")
	}
}

func TestBuildWithoutNumerical(t *testing.T) {
	opts := DefaultOptions(48, 48)
	opts.IncludeNumerical = false
	s := buildSample(t, pgen.Fake, 1, opts)
	for _, n := range s.Features.Names {
		if strings.HasPrefix(n, "num_drop_") {
			t.Error("numerical features present despite ablation")
		}
	}
	if s.RoughBottom != nil {
		t.Error("rough bottom should be absent without numerical stage")
	}
}

func TestBuildCollapsedHierarchy(t *testing.T) {
	full := buildSample(t, pgen.Fake, 2, DefaultOptions(48, 48))
	opts := DefaultOptions(48, 48)
	opts.Hierarchical = false
	flat := buildSample(t, pgen.Fake, 2, opts)
	if flat.Features.Channels() >= full.Features.Channels() {
		t.Errorf("collapsed set (%d ch) should be smaller than hierarchical (%d ch)",
			flat.Features.Channels(), full.Features.Channels())
	}
	// Collapsed current map must conserve the summed allocation.
	sumOf := func(s *Sample, prefix string) float64 {
		total := 0.0
		for i, n := range s.Features.Names {
			if strings.HasPrefix(n, prefix) {
				for _, v := range s.Features.Maps[i].Data {
					total += v
				}
			}
		}
		return total
	}
	a := sumOf(full, "current")
	b := sumOf(flat, "current")
	if math.Abs(a-b) > 1e-9*math.Abs(a) {
		t.Errorf("collapse lost current: %v vs %v", a, b)
	}
}

func TestRoughBottomApproximatesGolden(t *testing.T) {
	opts := DefaultOptions(48, 48)
	opts.RoughIters = 10
	s := buildSample(t, pgen.Fake, 3, opts)
	mae := metrics.MAE(s.RoughBottom, s.Golden)
	if mae > 0.05*s.Golden.Max() {
		t.Errorf("10-iteration rough solve too far from golden: MAE %v vs max %v", mae, s.Golden.Max())
	}
}

func TestRotatePreservesMetricsStructure(t *testing.T) {
	s := buildSample(t, pgen.Fake, 4, DefaultOptions(48, 48))
	r := s.rotate(1)
	if r.Golden.Max() != s.Golden.Max() {
		t.Error("rotation changed golden max")
	}
	if r.Features.Channels() != s.Features.Channels() {
		t.Error("rotation changed channels")
	}
	if r.Class != s.Class {
		t.Error("rotation changed class")
	}
	if !strings.Contains(r.Name, "rot90") {
		t.Errorf("rotated name %q", r.Name)
	}
	back := r.rotate(3)
	for i := range back.Golden.Data {
		if back.Golden.Data[i] != s.Golden.Data[i] {
			t.Fatal("rot90 then rot270 must restore the map")
		}
	}
}

func TestAugmentQuadruples(t *testing.T) {
	s := buildSample(t, pgen.Fake, 5, DefaultOptions(48, 48))
	aug := Augment([]*Sample{s})
	if len(aug) != 4 {
		t.Fatalf("augmented to %d, want 4", len(aug))
	}
	seen := map[string]bool{}
	for _, a := range aug {
		seen[a.Name] = true
	}
	if len(seen) != 4 {
		t.Error("augmented names must be distinct")
	}
}

func TestOversample(t *testing.T) {
	f := &Sample{Class: pgen.Fake}
	r := &Sample{Class: pgen.Real}
	out := Oversample([]*Sample{f, r}, 2, 5)
	nf, nr := 0, 0
	for _, s := range out {
		if s.Class == pgen.Fake {
			nf++
		} else {
			nr++
		}
	}
	if nf != 2 || nr != 5 {
		t.Errorf("oversample fake=%d real=%d, want 2/5", nf, nr)
	}
}

func TestToTensors(t *testing.T) {
	s := buildSample(t, pgen.Fake, 6, DefaultOptions(48, 48))
	x, y := ToTensors([]*Sample{s, s.rotate(2)})
	if x.Dim(0) != 2 || x.Dim(1) != s.Features.Channels() || x.Dim(2) != 48 || x.Dim(3) != 48 {
		t.Errorf("x shape %v", x.Shape)
	}
	if y.Dim(0) != 2 || y.Dim(1) != 1 {
		t.Errorf("y shape %v", y.Shape)
	}
	// First sample's golden must be copied verbatim.
	for i := 0; i < 48*48; i++ {
		if y.Data[i] != s.Golden.Data[i] {
			t.Fatal("target copy wrong")
		}
	}
}

func TestNormalizer(t *testing.T) {
	s := buildSample(t, pgen.Fake, 7, DefaultOptions(48, 48))
	n := FitNormalizer([]*Sample{s})
	x, _ := ToTensors([]*Sample{s})
	n.Apply(x)
	// After max-abs scaling every channel is within [-1, 1] and at
	// least one channel touches 1.
	nb, c, h, w := x.Dims4()
	_ = nb
	touched := false
	for ci := 0; ci < c; ci++ {
		mx := 0.0
		for j := 0; j < h*w; j++ {
			v := math.Abs(x.Data[ci*h*w+j])
			if v > 1+1e-12 {
				t.Fatalf("channel %d exceeds 1 after normalization: %v", ci, v)
			}
			if v > mx {
				mx = v
			}
		}
		if mx > 0.999 {
			touched = true
		}
	}
	if !touched {
		t.Error("no channel reaches 1 — scales wrong")
	}
}

func TestCurriculumRampsIn(t *testing.T) {
	var samples []*Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, &Sample{Class: pgen.Fake})
	}
	for i := 0; i < 10; i++ {
		samples = append(samples, &Sample{Class: pgen.Real})
	}
	cur := Curriculum{Ramp: 0.5}
	rng := rand.New(rand.NewSource(1))
	countReal := func(ss []*Sample) int {
		n := 0
		for _, s := range ss {
			if s.Class == pgen.Real {
				n++
			}
		}
		return n
	}
	first := cur.Subset(samples, 0, 10, rng)
	if countReal(first) != 0 {
		t.Errorf("epoch 0 should hold no hard samples, got %d", countReal(first))
	}
	if len(first) != 10 {
		t.Errorf("epoch 0 should keep all easy samples, got %d", len(first))
	}
	mid := cur.Subset(samples, 2, 10, rng)
	nm := countReal(mid)
	if nm == 0 || nm == 10 {
		t.Errorf("mid-ramp should include part of the hard set, got %d", nm)
	}
	last := cur.Subset(samples, 9, 10, rng)
	if countReal(last) != 10 {
		t.Errorf("final epochs must include all hard samples, got %d", countReal(last))
	}
}

func TestGenerateSetMix(t *testing.T) {
	opts := DefaultOptions(48, 48)
	set, err := GenerateSet(context.Background(), 2, 1, 48, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("got %d samples", len(set))
	}
	if set[0].Class != pgen.Fake || set[2].Class != pgen.Real {
		t.Error("class layout wrong")
	}
	// All share shapes so they can be batched together.
	ToTensors(set)
}

func TestCollapseHelperOnSyntheticNames(t *testing.T) {
	cases := map[string]int{
		"current_m1":    7,
		"num_drop_m9":   8,
		"eff_dist":      -1,
		"resistance":    -1,
		"current_mx":    -1,
		"sp_resistance": -1,
	}
	for name, want := range cases {
		if got := indexLayerSuffix(name); got != want {
			t.Errorf("indexLayerSuffix(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestGoldenHotspotMetricsComputable(t *testing.T) {
	s := buildSample(t, pgen.Real, 8, DefaultOptions(48, 48))
	rep := metrics.Evaluate(s.RoughBottom, s.Golden)
	if rep.MAE < 0 || rep.F1 < 0 || rep.F1 > 1 {
		t.Errorf("implausible report %+v", rep)
	}
	if grid.MAE(s.Golden, s.Golden) != 0 {
		t.Error("grid MAE self-check failed")
	}
}

func TestFilterFeatures(t *testing.T) {
	s := buildSample(t, pgen.Fake, 9, DefaultOptions(48, 48))
	basic := FilterFeatures([]*Sample{s}, func(n string) bool {
		return strings.HasPrefix(n, "current") || n == "eff_dist" || n == "pdn_density"
	})
	if basic[0].Features.Channels() >= s.Features.Channels() {
		t.Error("filter did not reduce channels")
	}
	if s.Features.Channels() < 8 {
		t.Error("original sample mutated")
	}
	for _, n := range basic[0].Features.Names {
		if strings.HasPrefix(n, "num_drop") || n == "resistance" {
			t.Errorf("unexpected channel %q", n)
		}
	}
}

func TestRoughTensor(t *testing.T) {
	s := buildSample(t, pgen.Fake, 10, DefaultOptions(48, 48))
	r := RoughTensor([]*Sample{s, s.rotate(1)})
	if r.Dim(0) != 2 || r.Dim(1) != 1 || r.Dim(2) != 48 || r.Dim(3) != 48 {
		t.Fatalf("shape %v", r.Shape)
	}
	for i := 0; i < 48*48; i++ {
		if r.Data[i] != s.RoughBottom.Data[i] {
			t.Fatal("rough copy wrong")
		}
	}
	// Panics without a rough map.
	opts := DefaultOptions(48, 48)
	opts.IncludeNumerical = false
	bare := buildSample(t, pgen.Fake, 10, opts)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing rough map")
		}
	}()
	RoughTensor([]*Sample{bare})
}

func TestRoughTensorEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RoughTensor(nil)
}

func TestGenerateSetPropagatesErrors(t *testing.T) {
	opts := DefaultOptions(4, 4) // die too small -> generator error
	if _, err := GenerateSet(context.Background(), 1, 0, 4, 1, opts); err == nil {
		t.Error("expected generator error for tiny die")
	}
}

// TestBuildUncachedRecordsNothing: a build is cold whether or not an
// artifact cache is bound. A cache that holds the design's converged
// solve is neither read nor written — no cache event, no lookup, no
// store — and the sample is the unbound build's, bit for bit.
func TestBuildUncachedRecordsNothing(t *testing.T) {
	d, err := pgen.Generate(pgen.DefaultConfig("cacheds", pgen.Real, 24, 24, 19))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(16, 16)
	want, err := BuildCtx(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the cache with the exact solve a label lookup would hit.
	c := cache.New(0, 0)
	nw, err := circuit.FromNetlist(d.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := nw.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	solve := plan.Solve{Fingerprint: func() string { return cache.DesignFingerprint(d) }}
	if _, err := plan.Numerical(cache.WithCache(context.Background(), c), sys, make([]float64, sys.N()), solve); err != nil {
		t.Fatal(err)
	}
	seeded := c.Stats()

	for range 2 {
		rec := obs.NewRecorder()
		got, err := BuildCtx(cache.WithCache(obs.WithRecorder(context.Background(), rec), c), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m := rec.Manifest("test", nil); m.Cache != nil {
			t.Fatalf("build with a bound cache recorded cache events: %+v", m.Cache.Events)
		}
		if st := c.Stats(); st.Hits != seeded.Hits || st.Misses != seeded.Misses || st.Stores != seeded.Stores {
			t.Fatalf("build touched the bound cache: %+v after seeding, %+v after the build", seeded, st)
		}
		maps := [][2]*grid.Map{{want.Golden, got.Golden}, {want.RoughBottom, got.RoughBottom}}
		for i := range want.Features.Maps {
			maps = append(maps, [2]*grid.Map{want.Features.Maps[i], got.Features.Maps[i]})
		}
		for _, m := range maps {
			for i := range m[0].Data {
				if math.Float64bits(m[0].Data[i]) != math.Float64bits(m[1].Data[i]) {
					t.Fatalf("bound-cache sample differs from the unbound build at element %d: %v vs %v", i, m[1].Data[i], m[0].Data[i])
				}
			}
		}
	}
}
