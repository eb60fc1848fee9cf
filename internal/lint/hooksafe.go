package lint

import (
	"go/ast"
	"go/types"
)

// hookPackages are the packages whose hooks travel in a context. Maps
// package path to the hook type names constructed there.
var hookPackages = map[string][]string{
	"irfusion/internal/obs":    {"Recorder"},
	"irfusion/internal/faults": {"Injector"},
	"irfusion/internal/cache":  {"Cache"},
}

// globalHookPackage is the one hook package that also keeps a
// process-global slot (one -faults spec arms a whole process); obs and
// cache are found only through the context.
const globalHookPackage = "irfusion/internal/faults"

// checkHooksafe enforces the hook-resolution discipline:
//
//  1. faults.Active may not be called from a function that receives a
//     context: the context may carry a bound injector, and reading the
//     global silently ignores it; use ActiveOr(ctx). Waivable with
//     //irfusion:ctx-ok.
//  2. The hook structs (obs.Recorder, faults.Injector, cache.Cache)
//     may not be composite-literal-constructed outside their home
//     packages — the constructors establish the nil-safety invariants.
func (r *runner) checkHooksafe(p *modPkg) {
	if _, isHome := hookPackages[p.Path]; isHome {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hasCtx := contextParam(p, fd) != nil
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					r.hooksafeCall(p, fd, n, hasCtx)
				case *ast.CompositeLit:
					r.hooksafeLit(p, n)
				}
				return true
			})
		}
	}
}

func (r *runner) hooksafeCall(p *modPkg, fd *ast.FuncDecl, call *ast.CallExpr, hasCtx bool) {
	obj, isConv := callee(p.Info, call)
	if isConv {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == globalHookPackage && fn.Name() == "Active" && hasCtx && !r.waived("ctx-ok", call.Pos()) {
		r.report(call.Pos(), "hooksafe",
			"%s receives a context but reads the global %s.Active(); use %s.ActiveOr(ctx) so context-bound hooks are honored (or waive with //irfusion:ctx-ok <why>)",
			fd.Name.Name, fn.Pkg().Name(), fn.Pkg().Name())
	}
}

func (r *runner) hooksafeLit(p *modPkg, lit *ast.CompositeLit) {
	tv, ok := p.Info.Types[lit]
	if !ok {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	typeNames, isHook := hookPackages[named.Obj().Pkg().Path()]
	if !isHook {
		return
	}
	for _, name := range typeNames {
		if named.Obj().Name() == name {
			r.report(lit.Pos(), "hooksafe",
				"construct %s.%s through its package constructor, not a composite literal",
				named.Obj().Pkg().Name(), name)
		}
	}
}
