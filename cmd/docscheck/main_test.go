package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a fixture repo under a temp dir and returns its
// root. Keys are slash-relative paths, values file contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func checkOne(t *testing.T, root, doc string) []string {
	t.Helper()
	idx, err := indexTree(root)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDoc(filepath.Join(root, filepath.FromSlash(doc)), idx)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestDeadLinkDetected is the acceptance fixture of the docs-check
// satellite: a doc with a dead relative link must fail the check.
func TestDeadLinkDetected(t *testing.T) {
	root := writeTree(t, map[string]string{
		"docs/GUIDE.md": "Start with [the overview](OVERVIEW.md) before anything else.\n",
	})
	problems := checkOne(t, root, "docs/GUIDE.md")
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want exactly the dead link", problems)
	}
	if !strings.Contains(problems[0], "OVERVIEW.md") || !strings.Contains(problems[0], "dead link") {
		t.Fatalf("diagnostic %q does not name the dead link", problems[0])
	}
}

func TestLinksResolveAndSkip(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": strings.Join([]string{
			"See [the guide](docs/GUIDE.md) and [a section](docs/GUIDE.md#ring).",
			"External [site](https://example.com/x.md) and [mail](mailto:a@b.c) are skipped.",
			"In-page [jump](#local-heading) is skipped too.",
			"",
		}, "\n"),
		"docs/GUIDE.md": "# Guide\n\nBack to [the readme](../README.md).\n",
	})
	for _, doc := range []string{"README.md", "docs/GUIDE.md"} {
		if problems := checkOne(t, root, doc); len(problems) != 0 {
			t.Errorf("%s: unexpected problems: %v", doc, problems)
		}
	}
}

// checkProse runs the anchor checks of one line of prose against the
// fixture tree at root.
func checkProse(t *testing.T, root, prose string) []string {
	t.Helper()
	// Anchors resolve against root, but the doc can live anywhere.
	doc := writeTree(t, map[string]string{"doc.md": prose + "\n"})
	idx, err := indexTree(root)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkDoc(filepath.Join(doc, "doc.md"), idx)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestAnchorChecks: an anchor is a root-relative path and a declared
// name; line anchors in prose are refused, sample output in a fence is
// not read.
func TestAnchorChecks(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/nn/gemm.go": "package nn\n\nfunc gemmQuad() {}\n",
	})
	cases := []struct {
		line   string
		broken int
	}{
		{"the quad (`internal/nn/gemm.go#gemmQuad`)", 0},
		{"missing file `internal/gone/gone.go#gemmQuad`", 1},
		{"a bare basename `gemm.go#gemmQuad` is not root-relative", 1},
		{"a line anchor `internal/nn/gemm.go:3` in prose", 1},
		{"a bare line anchor (`gemm.go:12`) in prose", 1},
		{"```\ninternal/nn/gemm.go:12: sample tool output\ngemm.go#x\n```", 0},
		{"two on a line: `internal/nn/gemm.go#gemmQuad`, `gemm.go:3`", 1},
	}
	for _, tc := range cases {
		if problems := checkProse(t, root, tc.line); len(problems) != tc.broken {
			t.Errorf("%q: %d problems %v, want %d", tc.line, len(problems), problems, tc.broken)
		}
	}
}

// TestAnchorSymbolCheck: an anchor holds while its file declares the
// symbol, and fails once a refactor renames or removes it.
func TestAnchorSymbolCheck(t *testing.T) {
	src := `package core

type Hier struct {
	levels int
}

type Model interface {
	Forward() int
}

const Tol = 1e-8

var errPanic error

func Solve() {}

func (h *Hier) apply() {}

func (h Hier) Depth() int { return h.levels }
`
	check := func(src, anchor string) int {
		root := writeTree(t, map[string]string{"internal/core/core.go": src})
		return len(checkProse(t, root, "see `internal/core/core.go#"+anchor+"`."))
	}
	for _, anchor := range []string{
		"Solve", "Tol", "errPanic", "Hier",
		"Hier.apply",    // pointer receiver
		"Hier.Depth",    // value receiver
		"Hier.levels",   // struct field
		"Model.Forward", // interface method
	} {
		if n := check(src, anchor); n != 0 {
			t.Errorf("%s: %d problems, want it to resolve", anchor, n)
		}
	}
	for _, anchor := range []string{"Solved", "apply", "Hier.Apply", "Model.Backward", "Hier.apply.x"} {
		if n := check(src, anchor); n != 1 {
			t.Errorf("%s: %d problems, want 1: the file declares no such name", anchor, n)
		}
	}
	refactors := []struct{ what, anchor, from, to string }{
		{"renamed function", "Solve", "func Solve()", "func SolveCtx()"},
		{"renamed method", "Hier.apply", "func (h *Hier) apply()", "func (h *Hier) applyOnce()"},
		{"removed field", "Hier.levels", "\tlevels int\n", ""},
		{"method moved to another type", "Hier.Depth", "func (h Hier) Depth() int { return h.levels }", "func (m Model) Depth() int { return 0 }"},
	}
	for _, r := range refactors {
		if n := check(strings.Replace(src, r.from, r.to, 1), r.anchor); n != 1 {
			t.Errorf("%s: %s gave %d problems after the refactor, want 1", r.what, r.anchor, n)
		}
	}
}

// TestRepoDocsClean runs the real gate over the repo's own docs: the
// same invocation `make docs-check` uses must come back clean.
func TestRepoDocsClean(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("not running inside the repo tree")
	}
	docs, err := collectMarkdown([]string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "DESIGN.md"),
		filepath.Join(root, "docs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 4 {
		t.Fatalf("only %d docs found — collection is broken", len(docs))
	}
	idx, err := indexTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		problems, err := checkDoc(doc, idx)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
}
