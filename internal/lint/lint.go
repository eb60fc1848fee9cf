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
//   - hooksafe: no hook (recorder, injector, cache) is hand-rolled as
//     a composite literal.
//   - errwrap: fmt.Errorf with an error argument must wrap with %w so
//     errors.Is/As-driven classification keeps working.
//   - floateq: float ==/!= needs an //irfusion:exact annotation with a
//     rationale; unannotated exact comparison is almost always a bug
//     in numerical code.
//   - nogo: goroutines are spawned only inside internal/serve and
//     internal/cluster, the packages that own lifecycle management.
//   - exportuse: an exported name under internal/ is named by another
//     package's code (_bench included) or by a test outside its own
//     package-x tests, implements an interface, or is a type a used
//     name's signature or exported fields name.
//
// Two flow-sensitive rules run on an intraprocedural CFG (cfg.go)
// with a forward dataflow solver:
//
//   - locksafe: every sync.Mutex/RWMutex Lock is released on all paths
//     out of the function, and no lock is held across a blocking
//     operation (channel op, select without default, Wait, a ...Ctx
//     solver call, fsync-class I/O) unless annotated.
//   - ctxleak: a cancel func from context.WithCancel/WithTimeout/... is
//     not overwritten by another WithX call while still pending (the
//     dropped and discarded shapes are go vet's lostcancel check).
//
// Directives are ordinary comments: //irfusion:hotpath and
// //irfusion:hotpath-allow <rationale> in a function's doc comment;
// //irfusion:exact, ctx-ok, lock-ok and go-ok <rationale> on (or on
// the line before) the statement they waive. A line waiver is the one
// way to accept a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is module-relative with forward
// slashes so CI output is machine-independent.
type Diagnostic struct {
	File    string
	Line    int
	Rule    string
	Message string
}

// String is the one output format, file:line: rule: message — the
// shape CI's problem matcher (.github/irfusionlint-matcher.json) reads.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Rule, d.Message)
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
	// "frames are built on the job-lifecycle path").
	classHotpathAllow
)

// runner holds the cross-package state the rules share: the directive
// maps and the loaded packages. Rules are methods on it.
type runner struct {
	loader *loader
	pkgs   []*modPkg

	class   map[types.Object]funcClass // function directive classes, all packages
	waivers map[waiver]bool            // lines waived by exact/ctx-ok/lock-ok/go-ok

	diags []Diagnostic
}

// waiver is one line covered by one line-waiver directive.
type waiver struct {
	directive, file string
	line            int
}

// analyze runs every rule over pkgs (directives are collected from all
// of them first, so cross-package hotpath calls resolve) and returns
// the findings sorted by file, line, rule.
func analyze(l *loader, pkgs []*modPkg) []Diagnostic {
	r := &runner{
		loader:  l,
		pkgs:    pkgs,
		class:   map[types.Object]funcClass{},
		waivers: map[waiver]bool{},
	}
	// Directives first: they must be complete before any package is
	// checked.
	for _, p := range pkgs {
		r.collectDirectives(p)
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
	}
	r.checkExportUse()
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
	l, err := newLoader(modRoot)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.loadTree()
	if err != nil {
		return nil, err
	}
	// _bench is a caller of the tree (exportuse), not a package to check.
	if _, err := os.Stat(filepath.Join(l.ModRoot, "_bench")); err == nil {
		if _, err := l.loadDir(filepath.Join(l.ModRoot, "_bench")); err != nil {
			return nil, err
		}
	}
	return analyze(l, pkgs), nil
}

// report records a finding at pos.
func (r *runner) report(pos token.Pos, rule, format string, args ...any) {
	p := r.loader.Fset.Position(pos)
	r.diags = append(r.diags, Diagnostic{
		File:    r.relFile(p.Filename),
		Line:    p.Line,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// relFile rewrites an absolute filename as module-relative.
func (r *runner) relFile(name string) string {
	if rel, err := filepath.Rel(r.loader.ModRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// collectDirectives extracts every //irfusion: directive in p: function
// classes from doc comments into r.class (keyed by the *types.Func so
// call sites in other packages resolve), and the line waivers.
// Malformed directives are findings themselves (rule "directive") — a
// waiver without a rationale is indistinguishable from a silenced
// check.
func (r *runner) collectDirectives(p *modPkg) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//irfusion:")
				if !ok {
					continue
				}
				name, rationale, _ := strings.Cut(rest, " ")
				switch name {
				case "hotpath":
					// Rationale optional: the contract is the directive.
					continue
				case "hotpath-allow", "exact", "ctx-ok", "lock-ok", "go-ok":
					if strings.TrimSpace(rationale) == "" {
						r.report(c.Pos(), "directive", "//irfusion:%s requires a rationale", name)
					}
				default:
					r.report(c.Pos(), "directive", "unknown directive //irfusion:%s", name)
					continue
				}
				// A line waiver covers its own line (inline comment) and
				// the next line (directive on the preceding line).
				pos := r.loader.Fset.Position(c.Pos())
				r.waivers[waiver{name, pos.Filename, pos.Line}] = true
				r.waivers[waiver{name, pos.Filename, pos.Line + 1}] = true
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
func (r *runner) waived(directive string, pos token.Pos) bool {
	p := r.loader.Fset.Position(pos)
	return r.waivers[waiver{directive, p.Filename, p.Line}]
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
		// Package-qualified reference (obs.FromContext): no Selection
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
func (r *runner) isModulePath(path string) bool {
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
