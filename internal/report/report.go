// Package report renders the CSV artifacts written by cmd/experiments
// into GitHub-flavored markdown tables, so measured results can be
// pasted into EXPERIMENTS.md verbatim.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// CSVToMarkdown converts a CSV stream (first row = header) to a
// markdown table. Numeric-looking cells are right-aligned by the
// alignment row.
func CSVToMarkdown(r io.Reader) (string, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return "", err
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("report: empty CSV")
	}
	cols := len(rows[0])
	for i, row := range rows {
		if len(row) != cols {
			return "", fmt.Errorf("report: row %d has %d fields, header has %d", i, len(row), cols)
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.TrimSpace(c))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(rows[0])
	b.WriteString("|")
	for c := 0; c < cols; c++ {
		numeric := len(rows) > 1
		for _, row := range rows[1:] {
			if !looksNumeric(row[c]) {
				numeric = false
				break
			}
		}
		if numeric {
			b.WriteString("---:|")
		} else {
			b.WriteString("---|")
		}
	}
	b.WriteString("\n")
	for _, row := range rows[1:] {
		writeRow(row)
	}
	return b.String(), nil
}

func looksNumeric(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" {
		return false
	}
	dot := false
	for i, c := range s {
		switch {
		case c >= '0' && c <= '9':
		case c == '-' || c == '+':
			if i != 0 {
				return false
			}
		case c == '.':
			if dot {
				return false
			}
			dot = true
		case c == 'e' || c == 'E':
			// crude exponent tolerance
		default:
			return false
		}
	}
	return true
}
