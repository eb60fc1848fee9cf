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

// checkHooksafe enforces the hook-construction discipline: the hook
// structs (obs.Recorder, faults.Injector, cache.Cache) may not be
// composite-literal-constructed outside their home packages — the
// constructors establish the nil-safety invariants.
func (r *runner) checkHooksafe(p *modPkg) {
	if _, isHome := hookPackages[p.Path]; isHome {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				r.hooksafeLit(p, lit)
			}
			return true
		})
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
