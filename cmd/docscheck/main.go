// Command docscheck keeps the prose honest: it scans markdown files
// for relative links and source anchors and fails when any of them no
// longer resolve against the working tree. It is the engine of the
// `make docs-check` CI gate — refactors that remove or rename a
// documented declaration, or rename a file a doc links to, break the
// build instead of silently rotting the docs.
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
//   - Source anchors path/from/root.go#Name and path/from/root.go#Type.Member:
//     the file, resolved from the repo root (-root, default "."), must
//     declare Name — a top-level func, type, var or const — or Member,
//     a method, struct field or interface method of the named type
//     Type. Line anchors (file.go:123) are refused: they go stale
//     whenever code moves.
//
// Fenced code blocks are sample output, not prose: anchors inside
// them are not read. Exit status is non-zero when any reference is
// broken, with one diagnostic line per problem.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	log.SetFlags(0)
	root := flag.String("root", ".", "repo root that source anchors resolve against")
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

// treeIndex is the repo root that source anchors resolve against.
type treeIndex struct{ root string }

func indexTree(root string) (*treeIndex, error) {
	if _, err := os.Stat(root); err != nil {
		return nil, err
	}
	return &treeIndex{root: root}, nil
}

var (
	// [text](target) — target captured up to the closing paren.
	linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// path/file.go#Name or path/file.go#Type.Member.
	anchorRe = regexp.MustCompile(`([A-Za-z0-9_][A-Za-z0-9_./-]*\.go)#([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`)
	// path/file.go:123 — Go files only, so URLs with ports and
	// timestamps never false-positive.
	lineAnchorRe = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.go:[0-9]+`)
	fenceRe      = regexp.MustCompile("(?ms)^```.*?^```")
)

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
	// Blank fenced blocks, keeping offsets, so their sample output is
	// never read as anchors.
	prose := string(fenceRe.ReplaceAllFunc(data, func(block []byte) []byte {
		blank := bytes.Repeat([]byte{' '}, len(block))
		for i, c := range block {
			if c == '\n' {
				blank[i] = c
			}
		}
		return blank
	}))
	at := func(off int) string { return fmt.Sprintf("%s:%d", doc, 1+strings.Count(prose[:off], "\n")) }
	for _, m := range lineAnchorRe.FindAllStringIndex(prose, -1) {
		problems = append(problems, fmt.Sprintf("%s: line anchor %s — name the declaration instead: path/from/root.go#Symbol",
			at(m[0]), prose[m[0]:m[1]]))
	}
	for _, m := range anchorRe.FindAllStringSubmatchIndex(prose, -1) {
		if p := idx.checkAnchor(prose[m[2]:m[3]], prose[m[4]:m[5]]); p != "" {
			problems = append(problems, fmt.Sprintf("%s: stale anchor %s — %s", at(m[0]), prose[m[0]:m[1]], p))
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

// checkAnchor resolves the root-relative file and the symbol it must
// declare, and returns a diagnostic ("" when the anchor resolves).
func (idx *treeIndex) checkAnchor(file, symbol string) string {
	path := filepath.Join(idx.root, filepath.FromSlash(file))
	if _, err := os.Stat(path); err != nil {
		return fmt.Sprintf("no such file under %s (anchors are root-relative)", idx.root)
	}
	names, err := declared(path)
	if err != nil {
		return err.Error()
	}
	if !names[symbol] {
		return fmt.Sprintf("%s declares no %s", file, symbol)
	}
	return ""
}

// declared returns every name in a Go file that an anchor can name:
// its top-level funcs, types, vars and consts, and Type.Member for the
// methods, struct fields and interface methods of its named types.
func declared(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				names[id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					var members []*ast.Field
					switch t := s.Type.(type) {
					case *ast.StructType:
						members = t.Fields.List
					case *ast.InterfaceType:
						members = t.Methods.List
					}
					for _, m := range members {
						for _, n := range m.Names {
							names[s.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
	return names, nil
}
