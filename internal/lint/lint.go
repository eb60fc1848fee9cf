// Package lint implements irfusionlint, the project's own static
// analysis pass. It type-checks the whole module from source (stdlib
// go/parser + go/types only — no third-party analysis framework) and
// enforces the cross-cutting invariants the test suite can only probe
// pointwise:
//
//   - hotpath: functions marked //irfusion:hotpath may not allocate
//     and may only call other hotpath (or explicitly waived) functions.
//     The AllocsPerRun guards prove representative call sites are
//     clean; this rule proves the whole annotated call graph is.
//   - ctxcheck: exported ...Ctx functions must observe their context
//     inside loops, and context-holding code may not silently drop a
//     context by calling the non-Ctx variant of a function.
//   - hooksafe: observability and fault hooks must be resolved through
//     their nil-safe resolvers (ActiveOr), never via FromContext or by
//     hand-rolled construction.
//   - errwrap: fmt.Errorf with an error argument must wrap with %w so
//     errors.Is/As-driven classification keeps working.
//   - floateq: float ==/!= needs an //irfusion:exact annotation with a
//     rationale; unannotated exact comparison is almost always a bug
//     in numerical code.
//   - nogo: goroutines are spawned only inside internal/parallel and
//     internal/serve, the two packages that own lifecycle management.
//
// Four flow-sensitive rules run on an intraprocedural CFG (cfg.go)
// with a forward dataflow solver:
//
//   - locksafe: every sync.Mutex/RWMutex Lock is released on all paths
//     out of the function, and no lock is held across a blocking
//     operation (channel op, select without default, Wait, a ...Ctx
//     solver call, fsync-class I/O) unless annotated.
//   - ctxleak: cancel funcs from context.WithCancel/WithTimeout/... are
//     called on every path, deferred, or handed off; discarding or
//     overwriting a pending cancel is a finding.
//   - atomicmix: a variable accessed via sync/atomic anywhere may not
//     be read or written directly anywhere else in the module.
//   - sitedrift: fault-site and obs-counter string literals must
//     round-trip against their declaring registries — typos and dead
//     sites are findings (see sitedrift.go).
//
// Directives are ordinary comments: //irfusion:hotpath and
// //irfusion:hotpath-allow <rationale> in a function's doc comment;
// //irfusion:exact <rationale>, //irfusion:ctx-ok <rationale>, and
// //irfusion:lock-ok <rationale> on (or on the line before) the
// statement they waive.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is module-relative with forward
// slashes so baselines and CI output are machine-independent.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Rule, d.Message)
}

// Key is the baseline identity of a finding. It deliberately excludes
// the line number so unrelated edits above a baselined finding don't
// invalidate the baseline.
func (d Diagnostic) Key() string {
	return d.File + "|" + d.Rule + "|" + d.Message
}

// funcClass is the hotpath classification of a function, attached via
// doc-comment directives.
type funcClass int

const (
	classNone funcClass = iota
	// classHotpath: body is fully checked — no allocation, calls only
	// into hotpath/allowed functions.
	classHotpath
	// classHotpathAllow: callable from hotpath code without being
	// checked itself; the directive's rationale documents why (e.g.
	// "allocates only on the parallel dispatch path").
	classHotpathAllow
)

// Runner holds the cross-package state the rules share: the directive
// maps and the loaded packages. Rules are methods on it.
type Runner struct {
	loader *Loader
	pkgs   []*Package

	class  map[types.Object]funcClass // function directive classes, all packages
	exact  map[string]map[int]bool    // file -> lines waived by //irfusion:exact
	ctxOK  map[string]map[int]bool    // file -> lines waived by //irfusion:ctx-ok
	lockOK map[string]map[int]bool    // file -> lines waived by //irfusion:lock-ok

	// atomicmix cross-package state (collectAtomic fills, checkAtomicMix
	// reads).
	atomicObjs map[types.Object]token.Pos // first atomic access per object
	atomicOK   map[*ast.Ident]bool        // idents inside atomic calls

	// sitedrift cross-package state (collectSiteDrift fills,
	// reportSiteDrift reads).
	siteFired    map[*types.Package]map[string]bool // registry pkg -> fired sites
	counterRegs  map[string]bool                    // obs.GlobalCounter names
	counterReads []litUse                           // obs.CounterValue call sites

	diags []Diagnostic
}

// Analyze runs every rule over pkgs (directives are collected from all
// of them first, so cross-package hotpath calls resolve) and returns
// the findings sorted by file, line, rule.
func Analyze(l *Loader, pkgs []*Package) []Diagnostic {
	r := &Runner{
		loader:      l,
		pkgs:        pkgs,
		class:       map[types.Object]funcClass{},
		exact:       map[string]map[int]bool{},
		ctxOK:       map[string]map[int]bool{},
		lockOK:      map[string]map[int]bool{},
		atomicObjs:  map[types.Object]token.Pos{},
		atomicOK:    map[*ast.Ident]bool{},
		siteFired:   map[*types.Package]map[string]bool{},
		counterRegs: map[string]bool{},
	}
	// Collection phases first: directives and the module-wide registries
	// (atomic objects, fired fault sites, counter names) must be complete
	// before any package is checked.
	for _, p := range pkgs {
		r.collectDirectives(p)
	}
	for _, p := range pkgs {
		r.collectAtomic(p)
		r.collectSiteDrift(p)
	}
	for _, p := range pkgs {
		r.checkHotpath(p)
		r.checkCtx(p)
		r.checkHooksafe(p)
		r.checkErrwrap(p)
		r.checkFloatEq(p)
		r.checkNoGo(p)
		r.checkLocksafe(p)
		r.checkCtxleak(p)
		r.checkAtomicMix(p)
	}
	r.reportSiteDrift()
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i], r.diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return r.diags
}

// Run is the one-call entry point used by cmd/irfusionlint: load the
// module tree rooted at modRoot and analyze it.
func Run(modRoot string) ([]Diagnostic, error) {
	l, err := NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadTree()
	if err != nil {
		return nil, err
	}
	return Analyze(l, pkgs), nil
}

// report records a finding at pos.
func (r *Runner) report(pos token.Pos, rule, format string, args ...any) {
	p := r.loader.Fset.Position(pos)
	r.diags = append(r.diags, Diagnostic{
		File:    r.relFile(p.Filename),
		Line:    p.Line,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// relFile rewrites an absolute filename as module-relative.
func (r *Runner) relFile(name string) string {
	if rel, err := filepath.Rel(r.loader.ModRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// collectDirectives extracts every //irfusion: directive in p: function
// classes from doc comments into r.class (keyed by the *types.Func so
// call sites in other packages resolve), and line waivers for exact and
// ctx-ok. Malformed directives are findings themselves (rule
// "directive") — a waiver without a rationale is indistinguishable
// from a silenced check.
func (r *Runner) collectDirectives(p *Package) {
	for _, f := range p.Files {
		fname := r.loader.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//irfusion:")
				if !ok {
					continue
				}
				name, rationale, _ := strings.Cut(rest, " ")
				rationale = strings.TrimSpace(rationale)
				switch name {
				case "hotpath":
					// Rationale optional: the contract is the directive.
				case "hotpath-allow", "exact", "ctx-ok", "lock-ok":
					if rationale == "" {
						r.report(c.Pos(), "directive", "//irfusion:%s requires a rationale", name)
					}
				default:
					r.report(c.Pos(), "directive", "unknown directive //irfusion:%s", name)
					continue
				}
				if name == "exact" || name == "ctx-ok" || name == "lock-ok" {
					// The waiver covers its own line (inline comment)
					// and the next line (directive on the preceding
					// line).
					line := r.loader.Fset.Position(c.Pos()).Line
					m := r.exact
					switch name {
					case "ctx-ok":
						m = r.ctxOK
					case "lock-ok":
						m = r.lockOK
					}
					if m[fname] == nil {
						m[fname] = map[int]bool{}
					}
					m[fname][line] = true
					m[fname][line+1] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			cls := classNone
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(c.Text, "//irfusion:")
				if !ok {
					continue
				}
				name, _, _ := strings.Cut(rest, " ")
				switch name {
				case "hotpath":
					cls = classHotpath
				case "hotpath-allow":
					cls = classHotpathAllow
				}
			}
			if cls == classNone {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				r.class[obj] = cls
			}
		}
	}
}

// waived reports whether the statement at pos carries the given
// line-waiver directive (same line or the line before).
func waived(fset *token.FileSet, m map[string]map[int]bool, pos token.Pos) bool {
	p := fset.Position(pos)
	return m[p.Filename][p.Line]
}

// callee resolves the object a call expression invokes: a *types.Func
// for static calls and method calls, a *types.Var for calls through
// function values, a *types.Builtin for builtins, nil when the callee
// is a computed expression. isConv reports a type conversion.
func callee(info *types.Info, call *ast.CallExpr) (obj types.Object, isConv bool) {
	fun := unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil, true
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return info.Uses[fun], false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj(), false
		}
		// Package-qualified reference (obs.ActiveOr): no Selection
		// entry, the Sel ident resolves directly.
		return info.Uses[fun.Sel], false
	case *ast.IndexExpr:
		return callee(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return callee(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil, false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isModulePath reports whether path belongs to the module under
// analysis.
func (r *Runner) isModulePath(path string) bool {
	return path == r.loader.ModPath || strings.HasPrefix(path, r.loader.ModPath+"/")
}

// funcName renders obj for messages: pkg.Func or (pkg.Recv).Method.
func funcName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}
