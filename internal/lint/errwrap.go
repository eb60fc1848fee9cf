package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// checkErrwrap flags fmt.Errorf calls that receive an error-typed
// argument but whose (constant) format string contains no %w verb.
// Such a wrap flattens the cause to text: errors.Is/As stop seeing it,
// which breaks the degradation ladder's cancellation test (plan.aborts)
// and the error_kind mapping in the serve layer. %v on non-error values (a
// recovered panic payload, say) is fine and not flagged.
func (r *runner) checkErrwrap(p *modPkg) {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			obj, isConv := callee(p.Info, call)
			if isConv {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
				return true
			}
			tv, ok := p.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true // dynamic format string; nothing to prove
			}
			format := constant.StringVal(tv.Value)
			if strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				at, ok := p.Info.Types[arg]
				if !ok {
					continue
				}
				if types.AssignableTo(at.Type, errType) {
					r.report(call.Pos(), "errwrap",
						"fmt.Errorf receives an error but the format has no %%w; the cause becomes invisible to errors.Is/As")
					break
				}
			}
			return true
		})
	}
}
