package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// modPkg is one type-checked package of the module under analysis,
// carrying everything a rule needs: the parsed syntax, the type-checked
// package object, and the full types.Info side tables.
type modPkg struct {
	// Path is the import path ("irfusion/internal/sparse"). Fixture
	// packages under testdata get a synthetic path derived the same
	// way; nothing imports them, so the path only has to be unique.
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// loader parses and type-checks module packages from source and
// satisfies every external (standard library) import through the
// compiler's export data, which is orders of magnitude faster than
// source-checking the stdlib and needs no third-party machinery.
//
// Object identity is the load-bearing property: a *types.Func obtained
// from a call site in package A resolves to the same object as the
// definition in package B, as long as both were checked by the same
// loader. The directive maps and all cross-package rule checks depend
// on this, which is why one loader must load the whole tree.
type loader struct {
	Fset *token.FileSet
	// ModRoot is the absolute path of the module root (the directory
	// holding go.mod); ModPath is the module path declared there.
	ModRoot string
	ModPath string

	pkgs    map[string]*modPkg // loaded module packages by import path
	std     types.Importer     // export-data importer for non-module imports
	loading map[string]bool    // import-cycle detection
}

// newLoader creates a loader rooted at modRoot, which must contain a
// go.mod file.
func newLoader(modRoot string) (*loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root %s: %w", abs, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", abs)
	}
	return &loader{
		Fset:    token.NewFileSet(),
		ModRoot: abs,
		ModPath: modPath,
		pkgs:    map[string]*modPkg{},
		std:     importer.Default(),
		loading: map[string]bool{},
	}, nil
}

// Import implements types.Importer: module-internal paths are loaded
// from source (so rules get syntax and directives for them too), and
// everything else is delegated to the export-data importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.moduleDir(path); ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// moduleDir maps a module-internal import path to its source
// directory; ok is false for external imports.
func (l *loader) moduleDir(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loadDir loads the package in dir (absolute or relative to the
// process working directory), deriving its import path from its
// position under the module root (the root's is the module path). The
// fixture self-tests load testdata packages with it, and Run _bench.
func (l *loader) loadDir(dir string) (*modPkg, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", abs, l.ModRoot)
	}
	path := l.ModPath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// loadTree loads every package of the module except testdata, vendor,
// and hidden/underscore directories, returning them sorted by import
// path.
func (l *loader) loadTree() ([]*modPkg, error) {
	var pkgs []*modPkg
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		p, err := l.loadDir(path)
		if err != nil {
			if isNoGo(err) {
				return nil
			}
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// load parses and type-checks one module package, caching the result.
func (l *loader) load(path, dir string) (*modPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// go/build applies the default build constraints (GOOS, GOARCH,
	// tag gating like internal/race's //go:build race split), so the
	// file set matches what `go build` would compile.
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &modPkg{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// isNoGo reports whether err means "directory holds no buildable Go
// files", which the tree walk treats as "not a package" rather than a
// failure.
func isNoGo(err error) bool {
	var noGo *build.NoGoError
	return errors.As(err, &noGo)
}
