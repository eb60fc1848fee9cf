// Command irfusionlint runs the project's static-analysis pass (see
// internal/lint) over the module tree and prints each finding as one
// `file:line: rule: message` line — the lines CI's problem matcher
// (.github/irfusionlint-matcher.json) turns into annotations on the
// diff. A finding is accepted only by a line waiver in the source.
//
// Exit status: 0 when clean, 1 when there are findings, 2 on load or
// usage errors. CI runs it via `make lint`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"irfusion/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irfusionlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modRoot := fs.String("C", ".", "module root to lint (directory containing go.mod)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	diags, err := lint.Run(*modRoot)
	if err != nil {
		fmt.Fprintln(stderr, "irfusionlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "irfusionlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
