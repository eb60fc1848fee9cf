package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"irfusion/internal/lint"
)

// The real tree lints clean through the command: exit 0, no output.
func TestCleanRun(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-C", "../.."}, &out, &errOut); code != 0 || out.Len() != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// -C is the only flag: the retired baseline, budget, JSON and SARIF
// flags are usage errors, as is a directory without go.mod.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-baseline", "lint.baseline"}, {"-update-baseline"}, {"-budget", "lint.budget"},
		{"-json"}, {"-sarif", "lint.sarif"}, {"-C", t.TempDir()},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestMatcherParsesDiagnostics holds the output format and CI's problem
// matcher together: every line the command prints must parse, with
// file, line, rule and message landing in the matcher's fields, and
// the summary line on stderr must not.
func TestMatcherParsesDiagnostics(t *testing.T) {
	raw, err := os.ReadFile("../../.github/irfusionlint-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp                    string
				File, Line, Code, Message int
			}
		}
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern: %s", raw)
	}
	pat := m.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(pat.Regexp)

	// A module holding one unwaived go statement: exit 1, one finding.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "package probe\n\nfunc Spawn(ch chan int) {\n\tgo func() { ch <- 1 }()\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	if re.MatchString(strings.TrimSpace(errOut.String())) {
		t.Errorf("matcher annotates the summary line %q", errOut.String())
	}
	diags, err := lint.Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), diags[0].String()+"\n"; len(diags) != 1 || got != want {
		t.Fatalf("stdout %q, want the one finding %q", got, want)
	}
	// The finding, and one whose path has directories and whose message
	// has colons of its own.
	diags = append(diags, lint.Diagnostic{File: "internal/serve/api.go", Line: 190, Rule: "ctxleak",
		Message: "cancel func from context.WithCancel (line 184) is overwritten: see a.go:3: x"})
	for _, d := range diags {
		g := re.FindStringSubmatch(d.String())
		if g == nil {
			t.Errorf("matcher does not parse %q", d)
			continue
		}
		if g[pat.File] != d.File || g[pat.Line] != strconv.Itoa(d.Line) || g[pat.Code] != d.Rule || g[pat.Message] != d.Message {
			t.Errorf("%q parsed as file %q line %q rule %q message %q", d, g[pat.File], g[pat.Line], g[pat.Code], g[pat.Message])
		}
	}
}
