package report

import (
	"strings"
	"testing"
)

func TestCSVToMarkdown(t *testing.T) {
	in := "method,mae,f1\nIREDGe,17.392,0.108\nIR-Fusion,15.704,0.186\n"
	md, err := CSVToMarkdown(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), md)
	}
	if lines[0] != "| method | mae | f1 |" {
		t.Errorf("header: %q", lines[0])
	}
	if lines[1] != "|---|---:|---:|" {
		t.Errorf("alignment: %q", lines[1])
	}
	if !strings.Contains(lines[3], "IR-Fusion") {
		t.Errorf("row: %q", lines[3])
	}
}

func TestCSVToMarkdownErrors(t *testing.T) {
	if _, err := CSVToMarkdown(strings.NewReader("")); err == nil {
		t.Error("expected error for empty CSV")
	}
	if _, err := CSVToMarkdown(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("expected error for ragged CSV")
	}
}

func TestLooksNumeric(t *testing.T) {
	for s, want := range map[string]bool{
		"1":     true,
		"-2.5":  true,
		"+3":    true,
		"1.2.3": false,
		"12e3":  true,
		"abc":   false,
		"":      false,
		"1-2":   false,
	} {
		if looksNumeric(s) != want {
			t.Errorf("looksNumeric(%q) = %v, want %v", s, !want, want)
		}
	}
}
