package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkCtx enforces the module's cancellation contract:
//
//  1. In an exported ...Ctx function, every top-level loop that calls
//     back into the module must observe its context — reference
//     ctx.Err(), pass ctx onward, or carry an //irfusion:ctx-ok
//     waiver with a rationale. A ...Ctx function whose long loops
//     ignore ctx advertises cancellation it doesn't deliver.
//  2. A function that receives a context may not call the non-Ctx
//     variant of a function whose package also defines a FooCtx
//     sibling: that silently drops cancellation and recorder
//     isolation. Waivable per line with //irfusion:ctx-ok.
func (r *runner) checkCtx(p *modPkg) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := contextParam(p, fd)
			if ctxParam == nil {
				continue
			}
			if fd.Name.IsExported() && strings.HasSuffix(fd.Name.Name, "Ctx") {
				r.checkCtxLoops(p, fd, ctxParam)
			}
			r.checkCtxDropped(p, fd)
		}
	}
}

// contextParam returns the object of fd's context.Context parameter,
// or nil when fd doesn't take one.
func contextParam(p *modPkg, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxLoops walks the outermost loops of an exported ...Ctx
// function body. Nested loops are not separately checked: observing
// ctx once per outer iteration is the granularity the runtime
// promises.
func (r *runner) checkCtxLoops(p *modPkg, fd *ast.FuncDecl, ctxParam types.Object) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		case *ast.FuncLit:
			return false // its loops belong to the closure's own contract
		default:
			return true
		}
		if !r.loopCallsModule(p, body) {
			return false // pure arithmetic loop; kernels handle these
		}
		if r.referencesObject(p, body, ctxParam) {
			return false
		}
		if r.waived("ctx-ok", n.Pos()) {
			return false
		}
		r.report(n.Pos(), "ctxcheck",
			"%s: loop calls into the module without observing ctx; check ctx.Err(), pass ctx onward, or waive with //irfusion:ctx-ok <why>",
			fd.Name.Name)
		return false
	}
	ast.Inspect(fd.Body, walk)
}

// loopCallsModule reports whether body contains a call to a
// module-internal function.
func (r *runner) loopCallsModule(p *modPkg, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj, isConv := callee(p.Info, call)
		if isConv || obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && r.isModulePath(fn.Pkg().Path()) {
			found = true
		}
		return true
	})
	return found
}

// referencesObject reports whether any identifier under n resolves to
// obj.
func (r *runner) referencesObject(p *modPkg, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkCtxDropped flags calls to Foo from context-holding code when
// Foo's own package defines FooCtx.
func (r *runner) checkCtxDropped(p *modPkg, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj, isConv := callee(p.Info, call)
		if isConv {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !r.isModulePath(fn.Pkg().Path()) {
			return true
		}
		if strings.HasSuffix(fn.Name(), "Ctx") {
			return true
		}
		if !r.hasCtxSibling(fn) {
			return true
		}
		if r.waived("ctx-ok", call.Pos()) {
			return true
		}
		r.report(call.Pos(), "ctxcheck",
			"%s receives a context but calls %s; call %sCtx (or waive with //irfusion:ctx-ok <why>)",
			fd.Name.Name, funcName(fn), fn.Name())
		return true
	})
}

// hasCtxSibling reports whether fn's package (or receiver type)
// defines a fn.Name()+"Ctx" variant.
func (r *runner) hasCtxSibling(fn *types.Func) bool {
	want := fn.Name() + "Ctx"
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), want)
		_, ok := obj.(*types.Func)
		return ok
	}
	_, ok := fn.Pkg().Scope().Lookup(want).(*types.Func)
	return ok
}
