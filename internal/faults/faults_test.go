package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseRejectsMalformedSpecs(t *testing.T) {
	bad := []string{
		"solver.pcg",                 // no action
		":breakdown",                 // no site
		"solver.pcg:breakdown:p",     // param not key=value
		"solver.pcg:breakdown:p=2",   // probability out of range
		"solver.pcg:breakdown:q=1",   // unknown key
		"solver.pcg:latency:delay=x", // bad duration
		"seed=abc;solver.pcg:nan",    // bad seed
		"seed=3",                     // seed only, no fault clause
		"solver.pcg:breakdown:times=x",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

// Regression: Parse used to accept any site string, so a typo'd spec
// ran an entire chaos suite that injected nothing. Unknown sites must
// be rejected against the knownSites registry.
func TestParseRejectsUnknownSites(t *testing.T) {
	for _, spec := range []string{
		"solver.pgc:breakdown", // transposed letters
		"sovler.pcg:nan:p=0.5",
		"cache.lookup.exact:stale", // over-qualified
	} {
		_, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown site") {
			t.Errorf("Parse(%q) = %v; want unknown-site error", spec, err)
		}
	}
	if _, err := Parse(SiteCacheLookup + ":stale"); err != nil {
		t.Errorf("Parse of known site failed: %v", err)
	}
}

// The registry and the Site* constants must agree — the sitedrift lint
// rule checks the source, this checks the built artifact.
func TestKnownSitesCoverDeclaredConstants(t *testing.T) {
	for _, site := range []string{
		SitePCG, SiteAMGSetup, SiteDatasetBuild, SiteFeatures,
		SiteServeWorker, SiteCacheLookup, SiteCacheDelta,
		SiteClusterProbe, SiteClusterForward,
		SiteJournalAppend, SiteCheckpointSave, SiteCheckpointRestore,
	} {
		if !knownSites[site] {
			t.Errorf("site %q missing from knownSites", site)
		}
	}
}

func TestParseEmptyDisables(t *testing.T) {
	for _, spec := range []string{"", "  ", "\t"} {
		in, err := Parse(spec)
		if err != nil || in != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", spec, in, err)
		}
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if f := in.Fire(SitePCG, "numerical.amg"); f != nil {
		t.Fatalf("nil injector fired %+v", f)
	}
	if in.Spec() != "" {
		t.Fatalf("nil injector spec %q", in.Spec())
	}
}

func TestFireMatchesSiteAndLabel(t *testing.T) {
	in := MustParse("solver.pcg:breakdown:label=numerical.amg")
	if f := in.Fire(SiteAMGSetup, ""); f != nil {
		t.Fatalf("wrong site fired %+v", f)
	}
	if f := in.Fire(SitePCG, "golden"); f != nil {
		t.Fatalf("wrong label fired %+v", f)
	}
	f := in.Fire(SitePCG, "numerical.amg")
	if f == nil || f.Action != ActBreakdown || f.Label != "numerical.amg" {
		t.Fatalf("expected breakdown fault, got %+v", f)
	}
}

func TestTimesAndAfterModifiers(t *testing.T) {
	in := MustParse("amg.setup:fail:after=1,times=2")
	var fires []bool
	for i := 0; i < 5; i++ {
		fires = append(fires, in.Fire(SiteAMGSetup, "") != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("arrival %d: fired=%v, want %v (all: %v)", i, fires[i], want[i], fires)
		}
	}
}

// TestProbabilityIsSeedDeterministic runs the same probabilistic spec
// twice and demands an identical fire sequence, then checks a
// different seed produces a different sequence (the whole point of
// seeded injection: chaos runs are reproducible).
func TestProbabilityIsSeedDeterministic(t *testing.T) {
	seq := func(spec string) string {
		in := MustParse(spec)
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if in.Fire(SitePCG, "") != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a := seq("seed=7;solver.pcg:breakdown:p=0.5")
	b := seq("seed=7;solver.pcg:breakdown:p=0.5")
	if a != b {
		t.Fatalf("same seed, different sequences:\n%s\n%s", a, b)
	}
	c := seq("seed=8;solver.pcg:breakdown:p=0.5")
	if a == c {
		t.Fatalf("different seeds produced identical sequences: %s", a)
	}
	if !strings.Contains(a, "1") || !strings.Contains(a, "0") {
		t.Fatalf("p=0.5 sequence is degenerate: %s", a)
	}
}

func TestSleepLatencyAndStall(t *testing.T) {
	f := &Fault{Action: ActLatency, Delay: 5 * time.Millisecond}
	start := time.Now()
	if err := f.Sleep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("latency slept only %v", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	stall := &Fault{Action: ActStall}
	if err := stall.Sleep(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall returned %v, want deadline exceeded", err)
	}

	var none *Fault
	if err := none.Sleep(context.Background()); err != nil {
		t.Fatalf("nil fault Sleep: %v", err)
	}
}

func TestContextResolution(t *testing.T) {
	prev := Active()
	defer SetActive(prev)
	SetActive(nil)

	if got := ActiveOr(context.Background()); got != nil {
		t.Fatalf("ActiveOr with nothing installed = %v", got)
	}
	global := MustParse("serve.worker:panic")
	SetActive(global)
	if got := ActiveOr(context.Background()); got != global {
		t.Fatalf("ActiveOr did not fall back to global")
	}
	bound := MustParse("amg.setup:fail")
	ctx := WithInjector(context.Background(), bound)
	if got := ActiveOr(ctx); got != bound {
		t.Fatalf("ActiveOr did not prefer the context-bound injector")
	}
	if got := ActiveOr(nil); got != global {
		t.Fatalf("ActiveOr(nil) = %v, want the global", got)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	in := MustParse("solver.pcg:nan:p=0.5;dataset.build:latency:delay=1ms,times=3")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				in.Fire(SitePCG, "numerical.amg")
				in.Fire(SiteDatasetBuild, "")
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
