package lint

import "go/ast"

// goroutinePackages are the only packages allowed to contain bare go
// statements: the serve layer owns request/job lifecycle and the
// cluster gateway its probe loop and drain. Everywhere else a goroutine
// is an unmanaged lifetime — no join, no panic barrier, no cancellation.
var goroutinePackages = map[string]bool{
	"irfusion/internal/serve":   true,
	"irfusion/internal/cluster": true,
}

// checkNoGo flags go statements outside the packages that own
// goroutine lifecycles. Code that needs concurrency routes it through
// the serve job queue (one request per worker); a
// goroutine whose lifetime is the process's (an HTTP listener's Serve
// loop) carries //irfusion:go-ok <why>.
func (r *runner) checkNoGo(p *modPkg) {
	if goroutinePackages[p.Path] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !r.waived("go-ok", g.Pos()) {
				r.report(g.Pos(), "nogo",
					"go statement outside internal/serve and internal/cluster; route concurrency through the job queue, or annotate //irfusion:go-ok <why>")
			}
			return true
		})
	}
}
