package lint

// sitedrift: drift checking for the fault-site registry. The faults
// package's Site* constants are the registry. Every (*Injector).Fire
// call must pass one of them (a typo'd site silently never fires — the
// bug class that motivated making faults.Parse validate sites against
// knownSites); every declared site must be fired somewhere in non-test
// code (a dead site is a chaos spec that tests nothing); and the
// knownSites map must list exactly the Site* constants, in both
// directions.
//
// Detection keys on the package *name* "faults" and the type name
// Injector rather than a hard-coded import path, so the fixture
// self-tests can stand up miniature registries under testdata without
// touching the real one.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// collectSiteDrift gathers p's Fire sites, checking each against the
// callee package's Site* constants inline. Runs for every package
// before reportSiteDrift draws the module-wide conclusions.
func (r *runner) collectSiteDrift(p *modPkg) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := calleeFunc(p.Info, call)
			if !ok || fn.Pkg() == nil || fn.Name() != "Fire" || fn.Pkg().Name() != "faults" || recvTypeName(fn) != "Injector" {
				return true
			}
			decl := fn.Pkg()
			site, ok := constString(p.Info, call.Args[0])
			if !ok {
				r.report(call.Args[0].Pos(), "sitedrift", "fault site must be a faults.Site* constant, not a computed value, so drift checking can see it")
				return true
			}
			if r.siteFired[decl] == nil {
				r.siteFired[decl] = map[string]bool{}
			}
			r.siteFired[decl][site] = true
			if _, known := declaredSites(decl)[site]; !known {
				r.report(call.Args[0].Pos(), "sitedrift", "unknown fault site %q: no Site* constant in package %s declares it — a typo'd site never fires", site, decl.Name())
			}
			return true
		})
	}
}

// reportSiteDrift draws the module-wide conclusions after every
// package has been collected: dead fault sites and knownSites drift.
func (r *runner) reportSiteDrift() {
	for _, p := range r.pkgs {
		if p.Pkg.Name() == "faults" {
			r.checkFaultsRegistry(p)
		}
	}
}

// checkFaultsRegistry enforces the registry-side contracts of a
// faults package in the analyzed set: no dead sites, and a knownSites
// map that lists exactly the Site* constants. Map order does not leak
// into the output: analyze sorts the findings.
func (r *runner) checkFaultsRegistry(p *modPkg) {
	decls := declaredSites(p.Pkg)
	if len(decls) == 0 {
		return
	}
	for val, name := range decls {
		if !r.siteFired[p.Pkg][val] {
			r.report(p.Pkg.Scope().Lookup(name).Pos(), "sitedrift", "fault site %s (%q) is declared but never fired; delete it or wire its Fire call", name, val)
		}
	}

	lit := knownSitesLiteral(p)
	if lit == nil {
		r.report(p.Files[0].Name.Pos(), "sitedrift", "package %s declares Site* constants but no knownSites map literal; Parse cannot validate spec sites against the registry", p.Pkg.Name())
		return
	}
	inMap := map[string]token.Pos{}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if val, ok := constString(p.Info, kv.Key); ok {
				inMap[val] = kv.Key.Pos()
			}
		}
	}
	for val, name := range decls {
		if _, ok := inMap[val]; !ok {
			r.report(lit.Pos(), "sitedrift", "fault site %s (%q) is missing from knownSites — Parse would reject chaos specs that name it", name, val)
		}
	}
	for val, pos := range inMap {
		if _, ok := decls[val]; !ok {
			r.report(pos, "sitedrift", "knownSites entry %q matches no Site* constant; remove it or declare the site", val)
		}
	}
}

// declaredSites scans a package scope for exported Site* string
// constants, returning value -> constant name. One scope of a few
// dozen names per Fire call site; nothing is cached, so concurrent
// analyze calls share no state.
func declaredSites(pkg *types.Package) map[string]string {
	m := map[string]string{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "Site") || name == "Site" {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		m[constant.StringVal(c.Val())] = name
	}
	return m
}

// knownSitesLiteral finds the composite literal the package-level
// knownSites var is initialized with, nil when absent or not a literal.
func knownSitesLiteral(p *modPkg) *ast.CompositeLit {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name != "knownSites" || i >= len(vs.Values) {
						continue
					}
					if lit, ok := unparen(vs.Values[i]).(*ast.CompositeLit); ok {
						return lit
					}
				}
			}
		}
	}
	return nil
}

// constString evaluates e as a constant string.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
