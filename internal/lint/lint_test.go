package lint

import (
	"path/filepath"
	"strings"
	"sync"
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
	l, err := newLoader(modRoot)
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	p, err := l.loadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loadDir(%s): %v", name, err)
	}
	return analyze(l, []*modPkg{p})
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
	requireCount(t, diags, rule, 0)
}

// requireCount asserts exactly n diagnostics of the given rule.
func requireCount(t *testing.T, diags []Diagnostic, rule string, n int) {
	t.Helper()
	got := 0
	for _, d := range diags {
		if d.Rule == rule {
			got++
		}
	}
	if got != n {
		t.Errorf("want %d %s finding(s), got %d: %v", n, rule, got, diags)
	}
}

func TestHotpathFixture(t *testing.T) {
	diags := loadFixture(t, "hotpathfix")
	requireFinding(t, diags, "hotpath", "make allocates")
	requireFinding(t, diags, "hotpath", "neither //irfusion:hotpath nor //irfusion:hotpath-allow")
	requireFinding(t, diags, "hotpath", "function literal allocates a closure")
	requireFinding(t, diags, "hotpath", "call through function value")
	// A closure passed to a hotpath-allow callee allocates like any
	// other, and is the only thing wrong with Scale.
	var scale []Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "hotpathfix.Scale:") {
			scale = append(scale, d)
		}
	}
	if len(scale) != 1 || !strings.Contains(scale[0].Message, "function literal allocates a closure") {
		t.Errorf("want one closure finding in Scale, got %v", scale)
	}
}

func TestCtxFixture(t *testing.T) {
	diags := loadFixture(t, "ctxfix")
	requireFinding(t, diags, "ctxcheck", "loop calls into the module without observing ctx")
	requireFinding(t, diags, "ctxcheck", "receives a context but calls")
}

func TestHooksafeFixture(t *testing.T) {
	diags := loadFixture(t, "hooksafefix")
	requireFinding(t, diags, "hooksafe", "construct obs.Recorder through its package constructor")
	requireCount(t, diags, "hooksafe", 1)
}

func TestErrwrapFixture(t *testing.T) {
	diags := loadFixture(t, "errwrapfix")
	requireFinding(t, diags, "errwrap", "format has no %w")
	// Exactly one: the %v on a plain value in Describe must not count.
	requireCount(t, diags, "errwrap", 1)
}

func TestFloatEqFixture(t *testing.T) {
	diags := loadFixture(t, "floateqfix")
	requireFinding(t, diags, "floateq", "float == comparison")
	// Exactly one: the annotated comparison must not count.
	requireCount(t, diags, "floateq", 1)
}

// TestNoGoFixture pins the waiver that replaced the baseline file: of
// two go statements, only the one without //irfusion:go-ok is a finding.
func TestNoGoFixture(t *testing.T) {
	diags := loadFixture(t, "nogofix")
	requireFinding(t, diags, "nogo", "go statement outside")
	requireCount(t, diags, "nogo", 1)
}

func TestDirectiveRationaleRequired(t *testing.T) {
	diags := loadFixture(t, "directivefix")
	requireFinding(t, diags, "directive", "//irfusion:exact requires a rationale")
	requireFinding(t, diags, "directive", "//irfusion:go-ok requires a rationale")
	// The (malformed) waivers still suppress their findings: the
	// author's intent is recorded, just incompletely.
	forbidRule(t, diags, "floateq")
	forbidRule(t, diags, "nogo")
}

func TestLocksafeFixture(t *testing.T) {
	diags := loadFixture(t, "locksafefix")
	requireFinding(t, diags, "locksafe", "not released on every path")
	requireFinding(t, diags, "locksafe", "held across a channel send")
	requireFinding(t, diags, "locksafe", "held across sync.WaitGroup.Wait")
	// LoopLeak: the labeled break leaves the lock held at exit — three
	// exit-path findings (LeakOnError, DeferAfterReturn and LoopLeak)
	// beside the two blocking ones.
	requireCount(t, diags, "locksafe", 5)
}

func TestLocksafeCleanFixture(t *testing.T) {
	forbidRule(t, loadFixture(t, "locksafeclean"), "locksafe")
}

// TestCtxleakFixture: the overwrite is the one shape ctxleak reports;
// a cancel dropped on a path or discarded is go vet's lostcancel.
func TestCtxleakFixture(t *testing.T) {
	diags := loadFixture(t, "ctxleakfix")
	requireFinding(t, diags, "ctxleak", "overwritten before being called")
	requireCount(t, diags, "ctxleak", 1)
}

func TestCtxleakCleanFixture(t *testing.T) {
	forbidRule(t, loadFixture(t, "ctxleakclean"), "ctxleak")
}

// TestExportUseFixture: of lib's exports only the in-package-only and
// the in-package-test-only names are findings. Shape (named in Used's
// signature) and String (fmt.Stringer) have no caller by name, so
// dropping either exemption adds a finding and breaks the count.
func TestExportUseFixture(t *testing.T) {
	l, err := newLoader(modRoot)
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	var pkgs []*modPkg
	for _, dir := range []string{"exportusefix", "exportusefix/lib"} {
		p, err := l.loadDir(filepath.Join("testdata", "src", dir))
		if err != nil {
			t.Fatalf("loadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	diags := analyze(l, pkgs)
	requireFinding(t, diags, "exportuse", "lib.InPackageOnly is exported")
	requireFinding(t, diags, "exportuse", "lib.InTestOnly is exported")
	requireCount(t, diags, "exportuse", 2)
}

// TestLoadTreeRootIsTheImportedPackage: the module root is loaded once,
// under the module path, and importing the module path returns that
// same package, so its objects are identical at every use.
func TestLoadTreeRootIsTheImportedPackage(t *testing.T) {
	l, err := newLoader(modRoot)
	if err != nil {
		t.Fatalf("newLoader: %v", err)
	}
	if _, err := l.loadTree(); err != nil {
		t.Fatalf("loadTree: %v", err)
	}
	var roots []*modPkg
	for _, p := range l.pkgs {
		if p.Dir == l.ModRoot {
			roots = append(roots, p)
		}
	}
	if len(roots) != 1 || roots[0].Path != l.ModPath {
		t.Fatalf("want one root package %q, got %d", l.ModPath, len(roots))
	}
	imp, err := l.Import(l.ModPath)
	if err != nil || imp != roots[0].Pkg {
		t.Fatalf("Import(%q) = %p, %v; the tree's root is %p", l.ModPath, imp, err, roots[0].Pkg)
	}
}

func TestCleanFixture(t *testing.T) {
	diags := loadFixture(t, "cleanfix")
	if len(diags) != 0 {
		t.Errorf("clean fixture produced findings: %v", diags)
	}
}

// TestRepoIsLintClean is the in-suite mirror of `make lint`: the real
// module tree must be finding-free, with no filter — a finding is
// accepted only by a line waiver in the source. This makes
// `go test ./...` catch lint regressions even where CI's lint job is
// skipped.
func TestRepoIsLintClean(t *testing.T) {
	diags, err := Run(modRoot)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestAnalyzeConcurrently runs two analyses at once, each on its own
// loader: the rules must keep no state outside their runner (under
// -race this fails on any package-level cache). One side runs
// exportuse, the rule that reads the whole loaded module, over its
// fixture pair; the other the clean fixture.
func TestAnalyzeConcurrently(t *testing.T) {
	sets := [][]string{{"exportusefix", "exportusefix/lib"}, {"cleanfix"}}
	loaders := make([]*loader, len(sets))
	pkgs := make([][]*modPkg, len(sets))
	for i, dirs := range sets {
		l, err := newLoader(modRoot)
		if err != nil {
			t.Fatalf("newLoader: %v", err)
		}
		for _, dir := range dirs {
			p, err := l.loadDir(filepath.Join("testdata", "src", dir))
			if err != nil {
				t.Fatalf("loadDir(%s): %v", dir, err)
			}
			pkgs[i] = append(pkgs[i], p)
		}
		loaders[i] = l
	}
	diags := make([][]Diagnostic, len(sets))
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			diags[i] = analyze(loaders[i], pkgs[i])
		}(i)
	}
	wg.Wait()
	requireCount(t, diags[0], "exportuse", 2)
	if len(diags[1]) != 0 {
		t.Errorf("clean fixture produced findings: %v", diags[1])
	}
}
