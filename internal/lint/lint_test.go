package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// modRoot is the module root relative to this package's directory,
// where go test runs us.
const modRoot = "../.."

// loadFixture type-checks one seeded package under testdata/src (the
// tree walk skips testdata, so these only ever load here) and runs
// the full rule set over it.
func loadFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	l, err := NewLoader(modRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return Analyze(l, []*Package{p})
}

// requireFinding asserts at least one diagnostic of the given rule
// whose message contains substr.
func requireFinding(t *testing.T, diags []Diagnostic, rule, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule == rule && strings.Contains(d.Message, substr) {
			if d.Line <= 0 || d.File == "" {
				t.Errorf("finding %v lacks a position", d)
			}
			return
		}
	}
	t.Errorf("no %s finding containing %q; got %v", rule, substr, diags)
}

// forbidRule asserts no diagnostic of the given rule is present.
func forbidRule(t *testing.T, diags []Diagnostic, rule string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule == rule {
			t.Errorf("unexpected %s finding: %v", rule, d)
		}
	}
}

func TestHotpathFixture(t *testing.T) {
	diags := loadFixture(t, "hotpathfix")
	requireFinding(t, diags, "hotpath", "make allocates")
	requireFinding(t, diags, "hotpath", "neither //irfusion:hotpath nor //irfusion:hotpath-allow")
	requireFinding(t, diags, "hotpath", "function literal allocates a closure")
	requireFinding(t, diags, "hotpath", "call through function value")
}

func TestCtxFixture(t *testing.T) {
	diags := loadFixture(t, "ctxfix")
	requireFinding(t, diags, "ctxcheck", "loop calls into the module without observing ctx")
	requireFinding(t, diags, "ctxcheck", "receives a context but calls")
}

func TestHooksafeFixture(t *testing.T) {
	diags := loadFixture(t, "hooksafefix")
	requireFinding(t, diags, "hooksafe", "FromContext may return nil")
	requireFinding(t, diags, "hooksafe", "reads the global obs.Active()")
	requireFinding(t, diags, "hooksafe", "construct obs.Recorder through its package constructor")
}

func TestErrwrapFixture(t *testing.T) {
	diags := loadFixture(t, "errwrapfix")
	requireFinding(t, diags, "errwrap", "format has no %w")
	// Exactly one: the %v on a plain value in Describe must not count.
	n := 0
	for _, d := range diags {
		if d.Rule == "errwrap" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 errwrap finding, got %d: %v", n, diags)
	}
}

func TestFloatEqFixture(t *testing.T) {
	diags := loadFixture(t, "floateqfix")
	requireFinding(t, diags, "floateq", "float == comparison")
	n := 0
	for _, d := range diags {
		if d.Rule == "floateq" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("annotated comparison was flagged too: %v", diags)
	}
}

func TestNoGoFixture(t *testing.T) {
	diags := loadFixture(t, "nogofix")
	requireFinding(t, diags, "nogo", "go statement outside")
}

func TestDirectiveRationaleRequired(t *testing.T) {
	diags := loadFixture(t, "directivefix")
	requireFinding(t, diags, "directive", "requires a rationale")
	// The (malformed) waiver still suppresses the floateq finding: the
	// author's intent is recorded, just incompletely.
	forbidRule(t, diags, "floateq")
}

func TestLocksafeFixture(t *testing.T) {
	diags := loadFixture(t, "locksafefix")
	requireFinding(t, diags, "locksafe", "not released on every path")
	requireFinding(t, diags, "locksafe", "held across a channel send")
	requireFinding(t, diags, "locksafe", "held across sync.WaitGroup.Wait")
	// LoopLeak: the labeled break leaves the lock held at exit — at
	// least two exit-path findings total (LeakOnError and LoopLeak).
	n := 0
	for _, d := range diags {
		if d.Rule == "locksafe" && strings.Contains(d.Message, "not released on every path") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("want 2 exit-path locksafe findings, got %d: %v", n, diags)
	}
}

func TestLocksafeCleanFixture(t *testing.T) {
	forbidRule(t, loadFixture(t, "locksafeclean"), "locksafe")
}

func TestCtxleakFixture(t *testing.T) {
	diags := loadFixture(t, "ctxleakfix")
	requireFinding(t, diags, "ctxleak", "overwritten before being called")
	requireFinding(t, diags, "ctxleak", "not called on every path")
	requireFinding(t, diags, "ctxleak", "discarded")
}

func TestCtxleakCleanFixture(t *testing.T) {
	forbidRule(t, loadFixture(t, "ctxleakclean"), "ctxleak")
}

func TestAtomicMixFixture(t *testing.T) {
	diags := loadFixture(t, "atomicmixfix")
	requireFinding(t, diags, "atomicmix", "accessed via sync/atomic")
	n := 0
	for _, d := range diags {
		if d.Rule == "atomicmix" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 atomicmix finding (the atomic call itself must not count), got %d: %v", n, diags)
	}
}

func TestAtomicMixCleanFixture(t *testing.T) {
	forbidRule(t, loadFixture(t, "atomicmixclean"), "atomicmix")
}

func TestSiteDriftFixture(t *testing.T) {
	diags := loadFixture(t, "sitedriftfix")
	requireFinding(t, diags, "sitedrift", `unknown fault site "fix.typo"`)
	requireFinding(t, diags, "sitedrift", "SiteDead")
	requireFinding(t, diags, "sitedrift", "SiteUnlisted")
	requireFinding(t, diags, "sitedrift", `knownSites entry "fix.ghost"`)
	requireFinding(t, diags, "sitedrift", `counter "fix.no.such.counter"`)
}

func TestSiteDriftCleanFixture(t *testing.T) {
	forbidRule(t, loadFixture(t, "sitedriftclean"), "sitedrift")
}

func TestCleanFixture(t *testing.T) {
	diags := loadFixture(t, "cleanfix")
	if len(diags) != 0 {
		t.Errorf("clean fixture produced findings: %v", diags)
	}
}

// TestRepoIsLintClean is the in-suite mirror of `make lint`: the real
// module tree, filtered through the committed baseline, must be
// finding-free. This makes `go test ./...` catch lint regressions
// even where CI's lint job is skipped.
func TestRepoIsLintClean(t *testing.T) {
	diags, err := Run(modRoot)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := LoadBaseline(filepath.Join(modRoot, "lint.baseline"))
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	for _, d := range b.Filter(diags) {
		t.Errorf("unbaselined finding: %v", d)
	}
}

func TestBaselineFilter(t *testing.T) {
	diags := []Diagnostic{
		{File: "a.go", Line: 3, Rule: "nogo", Message: "m"},
		{File: "a.go", Line: 9, Rule: "nogo", Message: "m"},
		{File: "b.go", Line: 1, Rule: "floateq", Message: "x"},
	}
	path := filepath.Join(t.TempDir(), "base")
	// Baseline only one of the two identical a.go findings: the second
	// occurrence must survive filtering (multiset semantics).
	if err := WriteBaseline(path, diags[:1]); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	got := b.Filter(diags)
	if len(got) != 2 {
		t.Fatalf("Filter kept %d findings, want 2: %v", len(got), got)
	}
	if got[0].Line != 9 || got[1].File != "b.go" {
		t.Errorf("wrong survivors: %v", got)
	}
	// Full round trip: baselining everything filters everything.
	if err := WriteBaseline(path, diags); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	b, err = LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if got := b.Filter(diags); len(got) != 0 {
		t.Errorf("full baseline left findings: %v", got)
	}
	// A missing baseline file is an empty baseline, not an error.
	b, err = LoadBaseline(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatalf("LoadBaseline(absent): %v", err)
	}
	if got := b.Filter(diags); len(got) != 3 {
		t.Errorf("missing baseline should filter nothing, kept %d", len(got))
	}
}
