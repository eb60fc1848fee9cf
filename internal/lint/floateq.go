package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkFloatEq flags == and != between floating-point operands unless
// the comparison carries an //irfusion:exact directive (same line or
// the line before) stating why exact equality is intended. In
// numerical code almost every float equality is either a bug (values
// that differ by rounding) or a deliberate exact-zero sentinel test —
// the directive forces the distinction into the source.
func (r *runner) checkFloatEq(p *modPkg) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p, be.X) && !isFloat(p, be.Y) {
				return true
			}
			if r.waived("exact", be.Pos()) {
				return true
			}
			r.report(be.Pos(), "floateq",
				"float %s comparison; use a tolerance, or annotate //irfusion:exact <why> if exact equality is intended", be.Op)
			return true
		})
	}
}

func isFloat(p *modPkg, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
