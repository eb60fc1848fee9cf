// Command docscheck keeps the prose honest: it scans markdown files
// for relative links and file:line source anchors and fails when any
// of them no longer resolve against the working tree. It is the
// engine of the `make docs-check` CI gate — refactors that move code
// out from under a documented line number, or rename a file a doc
// links to, break the build instead of silently rotting the docs.
//
//	docscheck README.md docs
//
// Arguments are markdown files or directories (scanned recursively
// for *.md). Two kinds of references are checked:
//
//   - Relative markdown links [text](path): the target, resolved
//     against the linking file's directory, must exist. External
//     links (http://, https://, mailto:) and pure #fragment anchors
//     are skipped; a #fragment suffix on a file target is stripped
//     before the existence check.
//
//   - Source anchors file.go:line: the file must exist and hold at
//     least that many lines. Anchors containing a path separator are
//     resolved from the repo root (-root, default "."); bare
//     basenames match any repo file with that name, and pass if any
//     candidate is long enough. When the prose ties the anchor to a
//     back-ticked Go identifier — the nearest one in the same
//     parenthesis, else in the same sentence — that identifier must
//     appear within 3 lines of the anchored line, so an anchor that
//     still lands inside the file but no longer on its symbol fails.
//
// Exit status is non-zero when any reference is broken, with one
// diagnostic line per problem.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	root := flag.String("root", ".", "repo root that file:line anchors resolve against")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: docscheck [-root DIR] <file.md|dir> ...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	docs, err := collectMarkdown(flag.Args())
	if err != nil {
		log.Fatalf("docscheck: %v", err)
	}
	idx, err := indexTree(*root)
	if err != nil {
		log.Fatalf("docscheck: %v", err)
	}
	broken := 0
	for _, doc := range docs {
		problems, err := checkDoc(doc, idx)
		if err != nil {
			log.Fatalf("docscheck: %v", err)
		}
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
			broken++
		}
	}
	if broken > 0 {
		log.Fatalf("docscheck: %d broken reference(s) across %d file(s)", broken, len(docs))
	}
	log.Printf("docscheck: %d file(s) clean", len(docs))
}

// collectMarkdown expands the argument list: directories are walked
// recursively for *.md files, plain files are taken as given.
func collectMarkdown(args []string) ([]string, error) {
	var docs []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			docs = append(docs, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(d.Name(), ".md") {
				docs = append(docs, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// treeIndex is one walk of the repo: every file path (slash-separated,
// relative to root) plus a basename index so bare anchors like
// "solver.go:122" can find their file without a package prefix.
type treeIndex struct {
	root       string
	byBasename map[string][]string // basename → relative paths
	files      map[string][]string // relative path → memoized lines
}

func indexTree(root string) (*treeIndex, error) {
	idx := &treeIndex{
		root:       root,
		byBasename: map[string][]string{},
		files:      map[string][]string{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		idx.byBasename[d.Name()] = append(idx.byBasename[d.Name()], rel)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// lines returns a root-relative file split into lines, memoized.
func (idx *treeIndex) lines(rel string) ([]string, error) {
	if l, ok := idx.files[rel]; ok {
		return l, nil
	}
	data, err := os.ReadFile(filepath.Join(idx.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	l := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(data) == 0 {
		l = nil
	}
	idx.files[rel] = l
	return l, nil
}

var (
	// [text](target) — target captured up to the closing paren.
	linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// path/file.go:123 or file.go:123 — Go source anchors only, so
	// URLs with ports and timestamps never false-positive.
	anchorRe = regexp.MustCompile(`([A-Za-z0-9_][A-Za-z0-9_./-]*\.go):([0-9]+)`)
	// A back-ticked span, and what makes one a Go identifier worth
	// holding an anchor to: name, pkg.Name, Type.Method, (*Type).method,
	// but not a file name. Beside the anchor in one parenthesis that is
	// enough; out in the sentence it must also have an upper-case
	// letter, which fault sites, JSON fields and shell words lack.
	tickRe  = regexp.MustCompile("`[^`\n]+`")
	identRe = regexp.MustCompile(`^\(?\*?[A-Za-z_]\w*\)?(\.[A-Za-z_]\w*)*(\(\))?$`)
	fileRe  = regexp.MustCompile(`\.(go|md|json|ya?ml|sp|baseline|budget)$`)
	upperRe = regexp.MustCompile(`[A-Z]`)
	fenceRe = regexp.MustCompile("(?ms)^```.*?^```")
)

// symbolSlack is how far (in lines) a tied identifier may sit from
// its anchor: a doc comment of a few lines between the anchored line
// and the declaration is fine, a different function is not.
const symbolSlack = 3

// checkDoc scans one markdown file and returns a diagnostic line per
// broken reference.
func checkDoc(doc string, idx *treeIndex) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var problems []string
	dir := filepath.Dir(doc)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if skipLink(target) {
				continue
			}
			if frag := strings.IndexByte(target, '#'); frag >= 0 {
				target = target[:frag]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(target))); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s:%d: dead link: %s does not resolve", doc, i+1, m[1]))
			}
		}
	}
	text := string(data)
	// Fenced blocks are sample output, not prose: blank them (keeping
	// offsets) so they tie no identifiers to anchors.
	prose := fenceRe.ReplaceAllFunc(data, func(block []byte) []byte {
		blank := bytes.Repeat([]byte{' '}, len(block))
		for i, c := range block {
			if c == '\n' {
				blank[i] = c
			}
		}
		return blank
	})
	for _, m := range anchorRe.FindAllStringSubmatchIndex(text, -1) {
		file, lineStr := text[m[2]:m[3]], text[m[4]:m[5]]
		at := fmt.Sprintf("%s:%d", doc, 1+strings.Count(text[:m[0]], "\n"))
		want, err := strconv.Atoi(lineStr)
		if err != nil || want < 1 {
			problems = append(problems, fmt.Sprintf("%s: bad anchor line number: %s:%s", at, file, lineStr))
			continue
		}
		if p := idx.checkAnchor(file, want, tiedSymbol(string(prose), m[0], m[1])); p != "" {
			problems = append(problems, fmt.Sprintf("%s: %s", at, p))
		}
	}
	return problems, nil
}

// skipLink reports whether a link target is out of scope: external
// URLs and in-page fragment anchors.
func skipLink(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// tiedSymbol returns the Go identifier the prose ties to the anchor at
// prose[start:end] — the nearest back-ticked identifier inside the
// anchor's parenthesis, else inside its sentence — reduced to its last
// component, or "" when there is none.
func tiedSymbol(prose string, start, end int) string {
	lo := strings.LastIndex(prose[:start], "\n\n") + 1
	hi := len(prose)
	if i := strings.Index(prose[end:], "\n\n"); i >= 0 {
		hi = end + i
	}
	para, s, e := prose[lo:hi], start-lo, end-lo
	spans := tickRe.FindAllStringIndex(para, -1)
	// Punctuation inside back-ticks — `(*CSR).spmv` — is not structure.
	masked := []byte(para)
	for _, sp := range spans {
		for i := sp[0] + 1; i < sp[1]-1; i++ {
			masked[i] = 'x'
		}
	}
	nearest := func(l, r int, needUpper bool) string {
		best, bestDist := "", -1
		for _, sp := range spans {
			body := para[sp[0]+1 : sp[1]-1]
			if sp[0] < l || sp[1] > r || (sp[0] <= s && e <= sp[1]) ||
				!identRe.MatchString(body) || fileRe.MatchString(body) || (needUpper && !upperRe.MatchString(body)) {
				continue
			}
			dist := sp[0] - e // following the anchor
			if sp[1] <= s {
				dist = s - sp[1] + 1 // preceding: loses ties
			}
			if bestDist < 0 || dist < bestDist {
				best, bestDist = body, dist
			}
		}
		best = strings.TrimSuffix(best, "()")
		return best[strings.LastIndex(best, ".")+1:]
	}
	// The innermost parenthesis around the anchor: walk outwards from
	// it to the first bracket not closed on the way.
	edge := func(from, step int, open, shut byte) int {
		for i, depth := from, 0; i >= 0 && i < len(masked); i += step {
			switch c := masked[i]; {
			case c == shut:
				depth++
			case c == open && depth > 0:
				depth--
			case c == open:
				return i
			}
		}
		return -1
	}
	if l, r := edge(s-1, -1, '(', ')'), edge(e, 1, ')', '('); l >= 0 && r >= 0 {
		if sym := nearest(l, r, false); sym != "" {
			return sym
		}
	}
	// The sentence (or list item) around the anchor.
	l, r := 0, len(masked)
	for _, stop := range []string{". ", ".\n", "\n- ", "\n* "} {
		if i := bytes.LastIndex(masked[:s], []byte(stop)); i >= 0 && i+len(stop) > l {
			l = i + len(stop)
		}
		if i := bytes.Index(masked[e:], []byte(stop)); i >= 0 && e+i < r {
			r = e + i
		}
	}
	return nearest(l, r, true)
}

// checkAnchor verifies a file.go:line anchor against the tree index
// and returns a diagnostic ("" when the anchor resolves). Pathed
// anchors must name an existing root-relative file; bare basenames may
// match any same-named repo file. A candidate resolves the anchor when
// it has that many lines and, if the prose ties the anchor to symbol,
// mentions symbol within symbolSlack lines of it.
func (idx *treeIndex) checkAnchor(file string, line int, symbol string) string {
	candidates := idx.byBasename[file]
	if strings.Contains(file, "/") {
		candidates = []string{file}
	}
	word := regexp.MustCompile(`\b` + regexp.QuoteMeta(symbol) + `\b`)
	longest, seenAt := 0, 0
	for _, rel := range candidates {
		lines, err := idx.lines(rel)
		if err != nil {
			continue
		}
		longest = max(longest, len(lines))
		if line > len(lines) {
			continue
		}
		if symbol == "" {
			return ""
		}
		for i, l := range lines {
			if word.MatchString(l) && (seenAt == 0 || abs(i+1-line) < abs(seenAt-line)) {
				seenAt = i + 1
			}
		}
		if seenAt > 0 && abs(seenAt-line) <= symbolSlack {
			return ""
		}
	}
	switch {
	case longest == 0:
		return fmt.Sprintf("stale anchor: %s:%d — no such file under %s", file, line, idx.root)
	case line > longest:
		return fmt.Sprintf("stale anchor: %s:%d — file has only %d lines", file, line, longest)
	case seenAt == 0:
		return fmt.Sprintf("stale anchor: %s:%d — the prose ties it to `%s`, which the file never mentions", file, line, symbol)
	default:
		return fmt.Sprintf("stale anchor: %s:%d — the prose ties it to `%s`, whose nearest mention is line %d", file, line, symbol, seenAt)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
