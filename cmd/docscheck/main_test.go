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

func TestAnchorChecks(t *testing.T) {
	tenLines := strings.Repeat("package p\n", 10)
	root := writeTree(t, map[string]string{
		"internal/solver/solver.go": tenLines,
		"internal/other/solver.go":  strings.Repeat("package q\n", 3),
	})
	cases := []struct {
		line   string
		broken int
	}{
		{"converges at `internal/solver/solver.go:7`", 0},
		{"stale pathed anchor `internal/solver/solver.go:99`", 1},
		{"missing file `internal/gone/gone.go:1`", 1},
		// Bare basename: passes if ANY candidate is long enough.
		{"bare anchor `solver.go:7` matches the longer candidate", 0},
		{"bare anchor `solver.go:99` exceeds every candidate", 1},
		{"unknown basename `nowhere.go:1`", 1},
	}
	for _, tc := range cases {
		doc := writeTree(t, map[string]string{"doc.md": tc.line + "\n"})
		// Anchors resolve against root, but the doc can live anywhere.
		idx, err := indexTree(root)
		if err != nil {
			t.Fatal(err)
		}
		problems, err := checkDoc(filepath.Join(doc, "doc.md"), idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != tc.broken {
			t.Errorf("%q: %d problems %v, want %d", tc.line, len(problems), problems, tc.broken)
		}
	}
}

// TestAnchorSymbolCheck: an anchor that still lands inside its file but
// no longer on the identifier the prose ties it to is stale. The
// fixture is the bug that motivated the check — a doc citing a line
// inside a struct's field comments for a method 36 lines further down.
func TestAnchorSymbolCheck(t *testing.T) {
	src := strings.Repeat("// filler\n", 9) + // lines 1-9
		"func Solve() {}\n" + // 10
		strings.Repeat("// filler\n", 9) + // 11-19
		"func (h *Hier) apply() {}\n" + // 20
		strings.Repeat("// filler\n", 10) // 21-30
	root := writeTree(t, map[string]string{"internal/core/core.go": src})
	cases := []struct {
		prose  string
		broken int
	}{
		{"`Solve` (`internal/core/core.go:10`) runs the ladder.", 0},
		{"`Solve` (`internal/core/core.go:12`) is within the slack.", 0},
		{"`Solve` (`internal/core/core.go:25`) drifted.", 1},
		{"The ladder (`core.go:10`, `Solve`) by bare basename.", 0},
		{"The ladder (`core.go:25`, `Solve`) by bare basename, drifted.", 1},
		{"The K-cycle (`core.go:20`, `(*Hier).apply`) ties to the method name.", 0},
		{"Lower-case names tie inside the parenthesis (`apply`, `core.go:20`).", 0},
		{"Lower-case names tie inside the parenthesis (`apply`, `core.go:10`).", 1},
		{"but `apply` out in the sentence is prose, not a symbol (`core.go:10`).", 0},
		{"Two pairs (`core.go:10`, `Solve`; `core.go:20`,\n`(*Hier).apply`) across a line break.", 0},
		{"The nearest name wins: `Solve` is far, (`core.go:20`) `Hier.apply` is near.", 0},
		{"`Gone` (`core.go:10`) names nothing in the file.", 1},
		{"`Solve` in one sentence. The next cites `core.go:25` alone.", 0},
		{"```\ncore.go:25: Solve: sample tool output in a fence\n```", 0},
		{"Files and fault sites are not symbols: `core.go`, `amg.setup` (`core.go:25`).", 0},
	}
	idx, err := indexTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		doc := writeTree(t, map[string]string{"doc.md": tc.prose + "\n"})
		problems, err := checkDoc(filepath.Join(doc, "doc.md"), idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != tc.broken {
			t.Errorf("%q: %d problems %v, want %d", tc.prose, len(problems), problems, tc.broken)
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
