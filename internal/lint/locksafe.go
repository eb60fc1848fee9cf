package lint

// locksafe: flow-sensitive lock discipline over the CFG. Two
// contracts, both scoped to one function at a time:
//
//  1. Every sync.Mutex/RWMutex Lock (or RLock) must be released on
//     every path out of the function — by an Unlock on each exit or
//     by a deferred Unlock registered on the path before that exit
//     (which also covers the panic edges).
//  2. No lock may be held across an operation that can block
//     indefinitely: a channel send/receive, a select with no default,
//     a range over a channel, (*sync.WaitGroup).Wait / (*sync.Cond).Wait,
//     time.Sleep, an fsync ((*os.File).Sync), an outbound net/http
//     client call, or a module-internal context-aware ...Ctx call
//     (those run whole solves). Reviewed-and-intentional cases —
//     e.g. the journal serializing fsync under its mutex — carry
//     //irfusion:lock-ok <rationale> on (or on the line before) the
//     blocking call, or on the Lock() line for exit-path waivers.
//
// Locks are identified by the object path of the receiver expression
// ("j.mu", "globalMu"); receivers that aren't ident/field chains
// (map elements, call results) are not tracked. Non-blocking channel
// operations — close(), and a select that has a default clause — are
// deliberately not in the blocking set, so patterns like serve's
// submit (a guarded non-blocking enqueue under submitMu) stay clean.
// Helpers that run with a caller-held lock (the *Locked naming
// convention) are a known intraprocedural blind spot; the convention
// itself is the documentation there.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// lockFact is the dataflow fact. held maps each held lock's key to
// where it was acquired; the "/R" suffix distinguishes read locks so
// RLock pairs with RUnlock. uncovered is the part of held that no
// deferred unlock on the path covers: what a return here would leak.
// Both join by union — a lock held on any path in is held. deferred
// holds the keys whose unlock a defer statement registered on every
// path in, and joins by intersection: a deferred unlock covers only
// the exits reached after the defer runs.
type lockFact struct {
	held, uncovered map[string]token.Pos
	deferred        map[string]bool
}

func joinLocks(a, b lockFact) lockFact {
	deferred := map[string]bool{}
	for k := range a.deferred {
		if b.deferred[k] {
			deferred[k] = true
		}
	}
	return lockFact{held: unionLocks(a.held, b.held), uncovered: unionLocks(a.uncovered, b.uncovered), deferred: deferred}
}

func unionLocks(a, b map[string]token.Pos) map[string]token.Pos {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(map[string]token.Pos, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if old, ok := out[k]; !ok || v < old {
			out[k] = v
		}
	}
	return out
}

func equalLocks(a, b lockFact) bool {
	return maps.Equal(a.held, b.held) && maps.Equal(a.uncovered, b.uncovered) && maps.Equal(a.deferred, b.deferred)
}

// clonePos copies m into a new map that is never nil.
func clonePos(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m)+1)
	maps.Copy(out, m)
	return out
}

func (r *runner) checkLocksafe(p *modPkg) {
	term := terminalChecker(p.Info)
	for _, f := range p.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			r.locksafeBody(p, body, term)
		})
	}
}

func (r *runner) locksafeBody(p *modPkg, body *ast.BlockStmt, term func(*ast.ExprStmt) bool) {
	if !usesSyncLocks(p.Info, body) {
		return
	}
	c := buildCFG(body, term)
	transfer := func(fact lockFact, blk *block) lockFact {
		for _, n := range blk.nodes {
			fact = r.lockTransfer(p, fact, n, false)
		}
		return fact
	}
	in := forwardSolve(c, lockFact{}, joinLocks, equalLocks, transfer)

	// Reporting pass: deterministic single replay of every reached
	// block, now with diagnostics enabled.
	for _, blk := range c.blocks {
		fact, reached := in[blk]
		if !reached {
			continue
		}
		for _, n := range blk.nodes {
			fact = r.lockTransfer(p, fact, n, true)
		}
	}

	exit, reached := in[c.exit]
	if !reached || len(exit.uncovered) == 0 {
		return
	}
	keys := make([]string, 0, len(exit.uncovered))
	for k := range exit.uncovered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pos := exit.uncovered[k]
		if r.waived("lock-ok", pos) {
			continue
		}
		r.report(pos, "locksafe", "%s is not released on every path out of the function; unlock on each exit or defer the unlock", lockCallName(k))
	}
}

// lockTransfer applies one CFG node's lock effects to fact, reporting
// blocking-under-lock violations when report is set. fact is treated
// as immutable (copy-on-write) because the solver may join it into
// other blocks.
func (r *runner) lockTransfer(p *modPkg, fact lockFact, n ast.Node, report bool) lockFact {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// The release runs at exit, so the lock stays held for the
		// blocking checks; every exit from here on is covered.
		keys := deferredUnlocks(p.Info, n.Call)
		if len(keys) == 0 {
			return fact
		}
		nf := lockFact{held: fact.held, uncovered: clonePos(fact.uncovered), deferred: map[string]bool{}}
		maps.Copy(nf.deferred, fact.deferred)
		for _, k := range keys {
			delete(nf.uncovered, k)
			nf.deferred[k] = true
		}
		return nf
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			r.lockBlocked(fact, n.Pos(), "a select with no default clause", report)
		}
		return fact
	case *ast.RangeStmt:
		if tv, ok := p.Info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				r.lockBlocked(fact, n.Pos(), "a range over a channel", report)
			}
		}
		return r.lockWalk(p, fact, n.X, report)
	}
	return r.lockWalk(p, fact, n, report)
}

// lockWalk scans one simple statement or expression for lock
// operations and blocking operations, in pre-order (a good-enough
// approximation of evaluation order for these effects).
func (r *runner) lockWalk(p *modPkg, fact lockFact, n ast.Node, report bool) lockFact {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// A literal's body is its own CFG; its effects happen when
			// it runs, not here.
			return false
		case *ast.SendStmt:
			r.lockBlocked(fact, x.Arrow, "a channel send", report)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				r.lockBlocked(fact, x.OpPos, "a channel receive", report)
			}
		case *ast.CallExpr:
			if op, key, ok := syncLockOp(p.Info, x); ok {
				nf := lockFact{held: clonePos(fact.held), uncovered: clonePos(fact.uncovered), deferred: fact.deferred}
				switch op {
				case lockAcquire:
					nf.held[key] = x.Pos()
					if !fact.deferred[key] {
						nf.uncovered[key] = x.Pos()
					}
				case lockRelease:
					delete(nf.held, key)
					delete(nf.uncovered, key)
				}
				fact = nf
				return false
			}
			if desc := r.blockingCallDesc(p.Info, x); desc != "" {
				r.lockBlocked(fact, x.Pos(), desc, report)
			}
		}
		return true
	})
	return fact
}

// lockBlocked reports a blocking operation reached with locks held,
// unless waived by //irfusion:lock-ok at the operation's line.
func (r *runner) lockBlocked(fact lockFact, pos token.Pos, what string, report bool) {
	if !report || len(fact.held) == 0 || r.waived("lock-ok", pos) {
		return
	}
	keys := make([]string, 0, len(fact.held))
	for k := range fact.held {
		keys = append(keys, lockDisplayName(k))
	}
	sort.Strings(keys)
	r.report(pos, "locksafe", "%s held across %s; release first, restructure, or annotate //irfusion:lock-ok <why>",
		strings.Join(keys, ", "), what)
}

type lockOp int

const (
	lockAcquire lockOp = iota
	lockRelease
)

// syncLockOp classifies a call as a sync package lock/unlock on a
// trackable receiver. TryLock variants return a bool the caller must
// branch on and are deliberately not tracked.
func syncLockOp(info *types.Info, call *ast.CallExpr) (lockOp, string, bool) {
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0, "", false
	}
	var op lockOp
	read := false
	switch fn.Name() {
	case "Lock":
		op = lockAcquire
	case "RLock":
		op, read = lockAcquire, true
	case "Unlock":
		op = lockRelease
	case "RUnlock":
		op, read = lockRelease, true
	default:
		return 0, "", false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, "", false
	}
	key, ok := objPath(info, sel.X)
	if !ok {
		return 0, "", false
	}
	if read {
		key += "/R"
	}
	return op, key, true
}

// objPath renders an ident/field chain as a stable key ("j.mu",
// "s.reg.mu"); ok is false for anything else (indexing, calls).
func objPath(info *types.Info, e ast.Expr) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if info.Uses[e] != nil || info.Defs[e] != nil {
			return e.Name, true
		}
	case *ast.SelectorExpr:
		base, ok := objPath(info, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// lockDisplayName turns a fact key back into the receiver expression.
func lockDisplayName(key string) string {
	return strings.TrimSuffix(key, "/R")
}

// lockCallName renders the acquiring call for messages: "j.mu.Lock()"
// or "j.mu.RLock()".
func lockCallName(key string) string {
	if base, ok := strings.CutSuffix(key, "/R"); ok {
		return base + ".RLock()"
	}
	return key + ".Lock()"
}

// blockingCallDesc describes why a call can block indefinitely, or ""
// when it cannot (as far as this rule models).
func (r *runner) blockingCallDesc(info *types.Info, call *ast.CallExpr) string {
	fn, ok := calleeFunc(info, call)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "sync":
		if name == "Wait" {
			return fmt.Sprintf("sync.%s.Wait", recvTypeName(fn))
		}
	case "time":
		if name == "Sleep" && fn.Type().(*types.Signature).Recv() == nil {
			return "time.Sleep"
		}
	case "os":
		if name == "Sync" && recvTypeName(fn) == "File" {
			return "(*os.File).Sync (fsync)"
		}
	case "net/http":
		switch name {
		case "Do", "Get", "Head", "Post", "PostForm":
			return "an outbound net/http " + name + " call"
		}
	}
	if r.isModulePath(fn.Pkg().Path()) && strings.HasSuffix(name, "Ctx") {
		return funcName(fn) + " (a context-aware call that can run a whole solve)"
	}
	return ""
}

// deferredUnlocks lists the lock keys a deferred call releases: a
// direct unlock, or the unlocks inside a deferred function literal.
func deferredUnlocks(info *types.Info, call *ast.CallExpr) []string {
	if op, key, ok := syncLockOp(info, call); ok && op == lockRelease {
		return []string{key}
	}
	var keys []string
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if inner, ok := x.(*ast.CallExpr); ok {
				if op, key, ok := syncLockOp(info, inner); ok && op == lockRelease {
					keys = append(keys, key)
				}
			}
			return true
		})
	}
	return keys
}

// usesSyncLocks is the cheap pre-filter: only bodies that mention a
// sync lock method by name get a CFG built.
func usesSyncLocks(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if _, _, ok := syncLockOp(info, call); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// calleeFunc resolves a call to its *types.Func, false for builtins,
// conversions, and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	obj, isConv := callee(info, call)
	if isConv {
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// recvTypeName names a method's receiver type ("WaitGroup", "File"),
// or "" for package-level functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// terminalChecker recognizes statements that never return: panic,
// os.Exit, runtime.Goexit, and the log.Fatal family. The CFG routes
// them to the exit block so deferred releases still apply.
func terminalChecker(info *types.Info) func(*ast.ExprStmt) bool {
	return func(s *ast.ExprStmt) bool {
		call, ok := unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		obj, isConv := callee(info, call)
		if isConv {
			return false
		}
		switch obj := obj.(type) {
		case *types.Builtin:
			return obj.Name() == "panic"
		case *types.Func:
			if obj.Pkg() == nil {
				return false
			}
			switch obj.Pkg().Path() {
			case "os":
				return obj.Name() == "Exit"
			case "runtime":
				return obj.Name() == "Goexit"
			case "log":
				return strings.HasPrefix(obj.Name(), "Fatal")
			}
		}
		return false
	}
}
