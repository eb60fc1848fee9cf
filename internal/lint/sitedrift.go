package lint

// sitedrift: cross-registry drift checking for the module's two
// string-keyed registries. Each registry has a single declaring home;
// every literal that *uses* a key must match a declaration, and
// declarations must not go dead:
//
//   - fault sites: the faults package's Site* constants are the
//     registry. Every (*Injector).Fire call must pass one of them (a
//     typo'd site silently never fires — the bug class that motivated
//     making faults.Parse validate sites against knownSites); every
//     declared site must be fired somewhere in non-test code (a dead
//     site is a chaos spec that tests nothing); and the knownSites
//     map must list exactly the Site* constants, in both directions.
//   - obs counters: obs.GlobalCounter(name) registrations are the
//     registry; obs.CounterValue(name) reads of an unregistered name
//     return a permanent zero, so they are findings. (The reverse
//     direction is deliberately unchecked: counters surface through
//     the manifest and /metricsz generically, so "registered but
//     never read by name" is the normal case, not drift.)
//
// Detection keys on package *names* ("faults", "obs") and the type
// name Injector rather than hard-coded import paths, so the fixture
// self-tests can stand up miniature registries under testdata without
// touching the real ones.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// litUse is one constant-string use site.
type litUse struct {
	val string
	pos token.Pos
}

// collectSiteDrift gathers p's registry uses: Fire sites (checked
// against the callee package's Site* constants inline), counter
// registrations, and counter reads. Runs for every package before
// reportSiteDrift draws the module-wide conclusions.
func (r *Runner) collectSiteDrift(p *Package) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := calleeFunc(p.Info, call)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Name() == "Fire" && fn.Pkg().Name() == "faults" && recvTypeName(fn) == "Injector":
				decl := fn.Pkg()
				site, ok := constString(p.Info, call.Args[0])
				if !ok {
					r.report(call.Args[0].Pos(), "sitedrift", "fault site must be a faults.Site* constant, not a computed value, so drift checking can see it")
					return true
				}
				if fired := r.siteFired[decl]; fired == nil {
					r.siteFired[decl] = map[string]bool{site: true}
				} else {
					fired[site] = true
				}
				if _, known := declaredSites(decl)[site]; !known {
					r.report(call.Args[0].Pos(), "sitedrift", "unknown fault site %q: no Site* constant in package %s declares it — a typo'd site never fires", site, decl.Name())
				}
			case fn.Name() == "GlobalCounter" && fn.Pkg().Name() == "obs" && recvTypeName(fn) == "":
				name, ok := constString(p.Info, call.Args[0])
				if !ok {
					r.report(call.Args[0].Pos(), "sitedrift", "counter name must be a constant string so drift checking can see it")
					return true
				}
				r.counterRegs[name] = true
			case fn.Name() == "CounterValue" && fn.Pkg().Name() == "obs" && recvTypeName(fn) == "":
				name, ok := constString(p.Info, call.Args[0])
				if !ok {
					r.report(call.Args[0].Pos(), "sitedrift", "counter name must be a constant string so drift checking can see it")
					return true
				}
				r.counterReads = append(r.counterReads, litUse{val: name, pos: call.Args[0].Pos()})
			}
			return true
		})
	}
}

// reportSiteDrift draws the module-wide conclusions after every
// package has been collected: dead fault sites, knownSites drift, and
// counter reads with no registration.
func (r *Runner) reportSiteDrift() {
	for _, p := range r.pkgs {
		if p.Pkg.Name() == "faults" {
			r.checkFaultsRegistry(p)
		}
	}
	for _, use := range r.counterReads {
		if !r.counterRegs[use.val] {
			r.report(use.pos, "sitedrift", "counter %q is read via obs.CounterValue but never registered with obs.GlobalCounter — a typo here reads a permanent zero", use.val)
		}
	}
}

// checkFaultsRegistry enforces the registry-side contracts of a
// faults package in the analyzed set: no dead sites, and a knownSites
// map that lists exactly the Site* constants.
func (r *Runner) checkFaultsRegistry(p *Package) {
	decls := declaredSites(p.Pkg)
	if len(decls) == 0 {
		return
	}
	fired := r.siteFired[p.Pkg]
	names := make([]string, 0, len(decls))
	byName := map[string]string{}
	for val, name := range decls {
		names = append(names, name)
		byName[name] = val
	}
	sort.Strings(names)

	for _, name := range names {
		val := byName[name]
		if !fired[val] {
			r.report(p.Pkg.Scope().Lookup(name).Pos(), "sitedrift", "fault site %s (%q) is declared but never fired; delete it or wire its Fire call", name, val)
		}
	}

	lit, litPos := knownSitesLiteral(p)
	if lit == nil {
		r.report(p.Files[0].Name.Pos(), "sitedrift", "package %s declares Site* constants but no knownSites map literal; Parse cannot validate spec sites against the registry", p.Pkg.Name())
		return
	}
	inMap := map[string]token.Pos{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if val, ok := constString(p.Info, kv.Key); ok {
			inMap[val] = kv.Key.Pos()
		}
	}
	for _, name := range names {
		val := byName[name]
		if _, ok := inMap[val]; !ok {
			r.report(litPos, "sitedrift", "fault site %s (%q) is missing from knownSites — Parse would reject chaos specs that name it", name, val)
		}
	}
	extras := make([]string, 0)
	for val := range inMap {
		if _, ok := decls[val]; !ok {
			extras = append(extras, val)
		}
	}
	sort.Strings(extras)
	for _, val := range extras {
		r.report(inMap[val], "sitedrift", "knownSites entry %q matches no Site* constant; remove it or declare the site", val)
	}
}

// declaredSites scans a package scope for exported Site* string
// constants, returning value -> constant name. Cached per package.
var siteDeclCache = map[*types.Package]map[string]string{}

func declaredSites(pkg *types.Package) map[string]string {
	if m, ok := siteDeclCache[pkg]; ok {
		return m
	}
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
	siteDeclCache[pkg] = m
	return m
}

// knownSitesLiteral finds the composite literal initializing the
// package-level knownSites var.
func knownSitesLiteral(p *Package) (*ast.CompositeLit, token.Pos) {
	lit := packageVarLiteral(p, "knownSites")
	if lit == nil {
		return nil, token.NoPos
	}
	return lit, lit.Pos()
}

// packageVarLiteral finds the composite literal a package-level var
// is initialized with, nil when absent or not a literal.
func packageVarLiteral(p *Package, name string) *ast.CompositeLit {
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
					if id.Name != name || i >= len(vs.Values) {
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
