package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathStdlib is the set of external packages hotpath code may call
// into: pure-math and lock-free primitives that never allocate.
var hotpathStdlib = map[string]bool{
	"math":        true,
	"sync/atomic": true,
}

// checkHotpath enforces the zero-allocation contract on every function
// marked //irfusion:hotpath:
//
//   - no make/new/append, no slice/map composite literals, no &T{...}
//   - no function literals
//   - no string concatenation and no implicit interface boxing at call
//     arguments — except inside panic(...) arguments, where the
//     allocation happens once on the way down
//   - no defer, no go, no conversions that allocate (to string or to
//     an interface)
//   - every callee must be a builtin, another hotpath function, a
//     hotpath-allow function, or live in an allowlisted stdlib package
//
// Bodies of hotpath-allow functions are intentionally not checked —
// the directive's rationale is the review record for them — and the
// AllocsPerRun regression tests provide the runtime counterpart for
// representative entry points.
func (r *runner) checkHotpath(p *modPkg) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			if obj == nil || r.class[obj] != classHotpath {
				continue
			}
			w := &hotpathWalker{r: r, p: p, fn: funcName(obj)}
			w.stmtList(fd.Body.List)
		}
	}
}

// hotpathWalker walks one hotpath function body. inPanic is true
// inside panic(...) arguments.
type hotpathWalker struct {
	r       *runner
	p       *modPkg
	fn      string
	inPanic bool
}

func (w *hotpathWalker) report(pos token.Pos, format string, args ...any) {
	w.r.report(pos, "hotpath", "%s: "+format, append([]any{w.fn}, args...)...)
}

func (w *hotpathWalker) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.stmt(s)
	}
}

func (w *hotpathWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmtList(s.Body.List)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Post)
		w.stmtList(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmtList(s.Body.List)
	case *ast.BlockStmt:
		w.stmtList(s.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			w.stmtList(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		// A type switch on a value the function already holds doesn't
		// allocate, but hotpath kernels shouldn't be doing dynamic
		// dispatch at all.
		w.report(s.Pos(), "type switch (dynamic dispatch) in hot path")
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.GoStmt:
		w.report(s.Pos(), "go statement allocates a goroutine")
	case *ast.DeferStmt:
		w.report(s.Pos(), "defer allocates a deferred frame")
	case *ast.SendStmt:
		w.report(s.Pos(), "channel send (synchronization) in hot path")
	case *ast.SelectStmt:
		w.report(s.Pos(), "select statement in hot path")
	case *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	default:
		// Anything exotic (e.g. fallthrough holders) has no expression
		// payload worth checking.
	}
}

func (w *hotpathWalker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		w.report(e.Pos(), "function literal allocates a closure")
		w.stmtList(e.Body.List)
	case *ast.CompositeLit:
		if !w.inPanic {
			if t, ok := w.p.Info.Types[e]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					w.report(e.Pos(), "slice/map literal allocates")
				}
			}
		}
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := unparen(e.X).(*ast.CompositeLit); ok && !w.inPanic {
				w.report(e.Pos(), "address of composite literal escapes to the heap")
			}
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && !w.inPanic {
			if t, ok := w.p.Info.Types[e]; ok {
				if basic, ok := t.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
					w.report(e.Pos(), "string concatenation allocates")
				}
			}
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
		for _, i := range e.Indices {
			w.expr(i)
		}
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.TypeAssertExpr:
		w.report(e.Pos(), "type assertion (dynamic dispatch) in hot path")
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	default:
		// Ident, BasicLit, type expressions: nothing to check.
	}
}

// call checks one call expression: allocation via builtins and
// conversions, implicit interface boxing at the arguments, and the
// call discipline (who hotpath code may call).
func (w *hotpathWalker) call(call *ast.CallExpr) {
	obj, isConv := callee(w.p.Info, call)

	if isConv {
		w.checkConversion(call)
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}

	// Walk the callee expression itself (a receiver chain like
	// obs.FromContext(ctx).Add contains a nested call to check).
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}

	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make", "new":
			w.report(call.Pos(), "%s allocates", b.Name())
		case "append":
			w.report(call.Pos(), "append may grow and allocate")
		case "panic":
			// panic unwinds the fast path anyway; its argument may box
			// and concatenate freely.
			prev := w.inPanic
			w.inPanic = true
			for _, a := range call.Args {
				w.expr(a)
			}
			w.inPanic = prev
			return
		}
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}

	switch obj := obj.(type) {
	case *types.Func:
		w.checkCallee(call, obj)
	case *types.Var:
		w.report(call.Pos(), "call through function value %q cannot be verified; hoist it to a named //irfusion:hotpath function", obj.Name())
	case nil:
		w.report(call.Pos(), "computed call target cannot be verified")
	}

	w.checkBoxing(call, obj)

	for _, a := range call.Args {
		w.expr(a)
	}
}

// checkCallee enforces the call discipline for a resolved static
// callee.
func (w *hotpathWalker) checkCallee(call *ast.CallExpr, fn *types.Func) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			w.report(call.Pos(), "dynamic interface call %s.%s cannot be verified", sig.Recv().Type(), fn.Name())
			return
		}
	}
	pkg := fn.Pkg()
	if pkg == nil {
		// Universe-scope methods (error.Error) are dynamic.
		w.report(call.Pos(), "dynamic call %s cannot be verified", fn.Name())
		return
	}
	if w.r.isModulePath(pkg.Path()) {
		if c := w.r.class[fn]; c != classHotpath && c != classHotpathAllow {
			w.report(call.Pos(), "calls %s, which is neither //irfusion:hotpath nor //irfusion:hotpath-allow", funcName(fn))
		}
		return
	}
	if !hotpathStdlib[pkg.Path()] {
		w.report(call.Pos(), "calls %s.%s from non-allowlisted package %s", pkg.Name(), fn.Name(), pkg.Path())
	}
}

// checkConversion flags conversions that allocate: to string (from
// []byte/[]rune) and to any interface type.
func (w *hotpathWalker) checkConversion(call *ast.CallExpr) {
	tv, ok := w.p.Info.Types[unparen(call.Fun)]
	if !ok || w.inPanic {
		return
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsString != 0 && len(call.Args) == 1 {
			if at, ok := w.p.Info.Types[call.Args[0]]; ok {
				if _, isSlice := at.Type.Underlying().(*types.Slice); isSlice {
					w.report(call.Pos(), "string conversion copies and allocates")
				}
			}
		}
	case *types.Interface:
		w.report(call.Pos(), "conversion to interface %s boxes its operand", tv.Type)
	}
}

// checkBoxing flags implicit concrete→interface conversions at call
// arguments — each one heap-allocates the boxed value.
func (w *hotpathWalker) checkBoxing(call *ast.CallExpr, obj types.Object) {
	if w.inPanic || obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := w.p.Info.Types[arg]
		if !ok || at.Type == types.Typ[types.UntypedNil] {
			continue
		}
		if b, ok := at.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if !types.IsInterface(at.Type) {
			w.report(arg.Pos(), "argument boxes %s into interface %s", at.Type, pt)
		}
	}
}
