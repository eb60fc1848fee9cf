package lint

// ctxleak: flow-sensitive tracking of the cancel funcs returned by
// context.WithCancel / WithTimeout / WithDeadline (and their *Cause
// variants). A cancel func that is never called leaks its context:
// the child stays registered on the parent until the parent itself
// ends — for a server's base context, that is a per-request memory
// leak.
//
// One finding: the variable holding a still-pending cancel is
// overwritten by a new WithX call — the shape of the serve bug this
// rule was built to catch (WithCancel assigned, then conditionally
// replaced by WithTimeout, abandoning the first context; the deferred
// cancel covers only the second). go vet's lostcancel check, which
// `make vet` runs, does not report it. The other two shapes — a
// cancel discarded at the binding, or not called on some path to the
// return — are lostcancel's and are left to it.
//
// A cancel is pending from its WithX call until it is called,
// deferred, or handed off — passed as an argument, stored, returned,
// or captured by a function literal: responsibility moved somewhere
// this intraprocedural rule cannot see. Reviewed exceptions use the
// //irfusion:ctx-ok <rationale> line waiver.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cancelInfo records where a pending cancel func came from.
type cancelInfo struct {
	pos token.Pos // the WithX call that produced the func
	fn  string    // "WithCancel", "WithTimeout", ...
}

// ctxFact maps each cancel variable that is pending on some path to
// the call that made it.
type ctxFact map[types.Object]cancelInfo

// joinCancels is the union: pending on either path is pending after
// the merge (the earliest WithX wins a tie, for determinism).
func joinCancels(a, b ctxFact) ctxFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(ctxFact, len(a)+len(b))
	for o, v := range a {
		out[o] = v
	}
	for o, v := range b {
		if old, ok := out[o]; !ok || v.pos < old.pos {
			out[o] = v
		}
	}
	return out
}

func equalCancels(a, b ctxFact) bool {
	if len(a) != len(b) {
		return false
	}
	for o, v := range a {
		if w, ok := b[o]; !ok || v != w {
			return false
		}
	}
	return true
}

func (r *runner) checkCtxleak(p *modPkg) {
	term := terminalChecker(p.Info)
	for _, f := range p.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			r.ctxleakBody(p, body, term)
		})
	}
}

func (r *runner) ctxleakBody(p *modPkg, body *ast.BlockStmt, term func(*ast.ExprStmt) bool) {
	if !usesContextWith(p.Info, body) {
		return
	}
	c := buildCFG(body, term)
	transfer := func(fact ctxFact, blk *block) ctxFact {
		for _, n := range blk.nodes {
			fact = r.cancelTransfer(p, fact, n, false)
		}
		return fact
	}
	in := forwardSolve(c, ctxFact{}, joinCancels, equalCancels, transfer)

	// Reporting pass: one replay of every reached block.
	for _, blk := range c.blocks {
		fact, reached := in[blk]
		if !reached {
			continue
		}
		for _, n := range blk.nodes {
			fact = r.cancelTransfer(p, fact, n, true)
		}
	}
}

// cancelTransfer applies one CFG node's effects to fact. fact is
// copy-on-write: the solver may have joined it into other blocks.
func (r *runner) cancelTransfer(p *modPkg, fact ctxFact, n ast.Node, report bool) ctxFact {
	switch n := n.(type) {
	case *ast.SelectStmt:
		// Comm statements are not CFG nodes; scan them here for uses
		// (`case out <- cancel:` is a handoff).
		for _, cl := range n.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok && comm.Comm != nil {
				fact = resolveCancelUses(p.Info, fact, comm.Comm)
			}
		}
		return fact
	case *ast.RangeStmt:
		return resolveCancelUses(p.Info, fact, n.X)
	case *ast.DeferStmt:
		// defer cancel(), defer func(){ cancel() }(), or any deferred
		// call mentioning the variable: resolved from this point on.
		return resolveCancelUses(p.Info, fact, n.Call)
	case *ast.AssignStmt:
		if nf, handled := r.cancelBind(p, fact, n, report); handled {
			return nf
		}
	}
	return resolveCancelUses(p.Info, fact, n)
}

// cancelBind handles `ctx, cancel := context.WithX(...)` (and `=`).
// handled is false when the assignment is not a WithX binding, in
// which case the caller falls through to generic use-scanning.
func (r *runner) cancelBind(p *modPkg, fact ctxFact, as *ast.AssignStmt, report bool) (ctxFact, bool) {
	if len(as.Rhs) != 1 {
		return fact, false
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return fact, false
	}
	withName := contextWithFunc(p.Info, call)
	if withName == "" {
		return fact, false
	}
	// The call's arguments may use previously tracked cancels.
	fact = resolveCancelUses(p.Info, fact, call)
	if len(as.Lhs) != 2 {
		return fact, true
	}
	id, ok := as.Lhs[1].(*ast.Ident)
	if !ok || id.Name == "_" {
		return fact, true
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil {
		return fact, true
	}
	if old, pending := fact[obj]; pending && report && !r.waived("ctx-ok", call.Pos()) {
		r.report(call.Pos(), "ctxleak", "cancel func from context.%s (line %d) is overwritten before being called; the abandoned context stays alive until its parent ends",
			old.fn, r.loader.Fset.Position(old.pos).Line)
	}
	nf := make(ctxFact, len(fact)+1)
	for o, v := range fact {
		nf[o] = v
	}
	nf[obj] = cancelInfo{pos: call.Pos(), fn: withName}
	return nf, true
}

// resolveCancelUses drops every pending cancel variable mentioned
// anywhere under n (including inside function literals — a capture is
// a handoff) from fact.
func resolveCancelUses(info *types.Info, fact ctxFact, n ast.Node) ctxFact {
	if len(fact) == 0 || n == nil {
		return fact
	}
	var copied bool
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, pending := fact[obj]; pending {
			if !copied {
				nf := make(ctxFact, len(fact))
				for o, w := range fact {
					nf[o] = w
				}
				fact, copied = nf, true
			}
			delete(fact, obj)
		}
		return true
	})
	return fact
}

// contextWithFunc names the context constructor a call invokes
// ("WithCancel", ...), or "" for anything else.
func contextWithFunc(info *types.Info, call *ast.CallExpr) string {
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	switch fn.Name() {
	case "WithCancel", "WithTimeout", "WithDeadline",
		"WithCancelCause", "WithTimeoutCause", "WithDeadlineCause":
		return fn.Name()
	}
	return ""
}

// usesContextWith is the cheap pre-filter for ctxleak.
func usesContextWith(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && contextWithFunc(info, call) != "" {
			found = true
			return false
		}
		return true
	})
	return found
}
