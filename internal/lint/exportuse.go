package lint

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/types"
	"path/filepath"
	"strings"
)

// checkExportUse reports each exported package-level name or method of
// a non-test file under internal/ that has no caller (package doc).
// Struct fields are out of scope: several are a JSON wire format.
func (r *runner) checkExportUse() {
	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIfaces := func(s *types.Scope) {
		for _, name := range s.Names() {
			if n, ok := s.Lookup(name).Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
					for i := 0; i < it.NumMethods(); i++ {
						ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
					}
				}
			}
		}
	}
	addIfaces(types.Universe)
	for _, p := range r.loader.pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = used[obj] || obj.Pkg() != nil && obj.Pkg() != p.Pkg
		}
		addIfaces(p.Pkg.Scope())
		for _, imp := range p.Pkg.Imports() {
			addIfaces(imp.Scope())
		}
	}
	pkgRefs, methodRefs := r.testRefs()

	// walk marks the module types t names, in signatures and exported fields.
	var walk func(t types.Type)
	walked := map[types.Type]bool{}
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if obj := t.Obj(); !walked[t] && obj.Pkg() != nil && r.isModulePath(obj.Pkg().Path()) {
				walked[t], used[obj] = true, true
				walk(t.Underlying())
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map value
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		}
	}
	var universe []types.Object
	for _, p := range r.pkgs {
		if !strings.HasPrefix(p.Path, r.loader.ModPath+"/internal/") {
			continue
		}
		for _, name := range p.Pkg.Scope().Names() {
			obj := p.Pkg.Scope().Lookup(name)
			objs := []types.Object{obj}
			named, isNamed := obj.Type().(*types.Named)
			if _, ok := obj.(*types.TypeName); ok && isNamed {
				for i := 0; i < named.NumMethods(); i++ {
					objs = append(objs, named.Method(i))
				}
			}
			for _, o := range objs {
				if !o.Exported() {
					continue
				}
				universe = append(universe, o)
				called := used[o] || o == obj && pkgRefs[p.Path+"."+o.Name()]
				for owner := range methodRefs[o.Name()] {
					called = called || o != obj && owner != p.Path
				}
				for _, it := range ifaces[o.Name()] {
					called = called || o != obj && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it))
				}
				if called {
					used[o] = true
					walk(o.Type())
				}
			}
		}
	}
	for _, obj := range universe {
		if name := obj.Pkg().Name(); !used[obj] {
			r.report(obj.Pos(), "exportuse", "%s.%s is exported but nothing outside its package calls it; unexport or delete it",
				name, strings.TrimPrefix(funcName(obj), name+"."))
		}
	}
}

// testRefs scans the loader's packages' _test.go files by syntax:
// pkgRefs["importpath.Name"] for each alias.Name, and methodRefs[Name]
// the packages whose package-x tests select .Name ("" for other files).
func (r *runner) testRefs() (pkgRefs map[string]bool, methodRefs map[string]map[string]bool) {
	pkgRefs, methodRefs = map[string]bool{}, map[string]map[string]bool{}
	for _, p := range r.loader.pkgs {
		bp, _ := build.Default.ImportDir(p.Dir, 0) // loaded once already; bp is never nil
		for i, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
			f, err := parser.ParseFile(r.loader.Fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				continue
			}
			owner, aliases := "", map[string]string{}
			if i < len(bp.TestGoFiles) {
				owner = p.Path
			}
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); imp.Name != nil {
					aliases[imp.Name.Name] = path
				} else if q := r.loader.pkgs[path]; q != nil {
					aliases[q.Pkg.Name()] = path
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && aliases[id.Name] != "" {
						pkgRefs[aliases[id.Name]+"."+sel.Sel.Name] = true
					} else if methodRefs[sel.Sel.Name] == nil {
						methodRefs[sel.Sel.Name] = map[string]bool{owner: true}
					} else {
						methodRefs[sel.Sel.Name][owner] = true
					}
				}
				return true
			})
		}
	}
	return pkgRefs, methodRefs
}
