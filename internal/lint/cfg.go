package lint

// Intraprocedural control-flow graphs over go/ast, plus the forward
// dataflow solver the flow-sensitive rules (locksafe, ctxleak) run on.
//
// A CFG is built per function body (FuncDecl and FuncLit bodies each
// get their own graph — rules never look through a function literal).
// Blocks hold the simple statements and condition expressions they
// evaluate, in source order; control constructs contribute edges:
//
//   - if/else and loop conditions are decomposed through && || ! so
//     short-circuit evaluation gets real branch edges — a Lock() in
//     the right operand of && is conditional, and the solver sees it
//     that way;
//   - for/range loops get back edges, break/continue (labeled or
//     not) and goto resolve to their targets;
//   - switch/type-switch clauses fan out from the head, fallthrough
//     edges into the next clause body;
//   - select heads carry the *ast.SelectStmt itself as a marker node
//     (rules check for a default clause); each comm clause body is a
//     successor block;
//   - return statements, panic calls, and process-terminating calls
//     (os.Exit, log.Fatal*) edge to the synthetic exit block;
//   - defer statements are recorded on the graph (and left in their
//     block as marker nodes), so exit-state checks can apply deferred
//     releases, which also covers the panic edges.
//
// The graph is deliberately approximate where precision buys nothing
// for the rules built on it: case expressions are attributed to their
// clause block rather than the head, and channel operands of a select
// are not modeled as evaluated at entry.

import (
	"go/ast"
	"go/token"
)

// block is one basic block: nodes evaluated in order, then a branch
// to one of succs (empty succs means the function cannot continue —
// the exit block, or an infinite loop with no break).
type block struct {
	index int
	nodes []ast.Node
	succs []*block
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	entry  *block
	exit   *block // target of every return/panic/fall-off edge
	blocks []*block
}

// buildCFG constructs the graph for body. isTerminal reports whether
// an expression statement never returns (panic, os.Exit, log.Fatal*);
// nil means nothing terminates.
func buildCFG(body *ast.BlockStmt, isTerminal func(*ast.ExprStmt) bool) *cfg {
	b := &cfgBuilder{
		c:          &cfg{},
		isTerminal: isTerminal,
		labels:     map[string]*block{},
	}
	b.c.entry = b.newBlock()
	b.c.exit = b.newBlock()
	b.cur = b.c.entry
	for _, s := range body.List {
		b.stmt(s)
	}
	b.edge(b.c.exit) // fall off the end
	return b.c
}

// branchTarget is one entry of the break/continue stack: a labeled or
// unlabeled for/range/switch/select in scope.
type branchTarget struct {
	label string
	brk   *block
	cont  *block // nil for switch/select
}

type cfgBuilder struct {
	c          *cfg
	cur        *block
	isTerminal func(*ast.ExprStmt) bool
	targets    []branchTarget
	labels     map[string]*block // label name -> its block (goto targets)
	nextLabel  string            // pending label for the next loop/switch
	fallTo     *block            // fallthrough target inside a switch clause
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.c.blocks)}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(to *block) {
	b.cur.succs = append(b.cur.succs, to)
}

// dead parks the builder on a fresh unreachable block after a
// terminating statement; anything appended there never gets facts.
func (b *cfgBuilder) dead() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.nodes = append(b.cur.nodes, n)
}

// takeLabel consumes the pending statement label.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

// labelBlock returns (creating on demand) the block a label names, so
// forward gotos resolve.
func (b *cfgBuilder) labelBlock(name string) *block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) push(label string, brk, cont *block) {
	b.targets = append(b.targets, branchTarget{label: label, brk: brk, cont: cont})
}

func (b *cfgBuilder) pop() {
	b.targets = b.targets[:len(b.targets)-1]
}

// findTarget resolves a break/continue: the innermost matching target
// (continue needs a loop), or the one carrying the label.
func (b *cfgBuilder) findTarget(label string, needCont bool) *branchTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needCont && t.cont == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		then := b.newBlock()
		after := b.newBlock()
		els := after
		if s.Else != nil {
			els = b.newBlock()
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmt(s.Body)
		b.edge(after)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.edge(after)
		}
		b.cur = after
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(head)
		body := b.newBlock()
		after := b.newBlock()
		cont := head
		var post *block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, after)
		} else {
			b.edge(body)
		}
		b.push(label, after, cont)
		b.cur = body
		b.stmt(s.Body)
		b.edge(cont)
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(head)
		}
		b.pop()
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(head)
		body := b.newBlock()
		after := b.newBlock()
		b.cur = head
		b.add(s) // marker: rules look at s.X / key-value binding only
		b.edge(body)
		b.edge(after)
		b.push(label, after, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(head)
		b.pop()
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, true)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, false)
	case *ast.SelectStmt:
		label := b.takeLabel()
		b.add(s) // marker: rules check for a default clause
		head := b.cur
		after := b.newBlock()
		b.push(label, after, nil)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			head.succs = append(head.succs, blk)
			b.cur = blk
			for _, st := range comm.Body {
				b.stmt(st)
			}
			b.edge(after)
		}
		b.pop()
		b.cur = after
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(lb)
		b.cur = lb
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.nextLabel = ""
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(label, false); t != nil {
				b.edge(t.brk)
			}
			b.dead()
		case token.CONTINUE:
			if t := b.findTarget(label, true); t != nil {
				b.edge(t.cont)
			}
			b.dead()
		case token.GOTO:
			b.edge(b.labelBlock(label))
			b.dead()
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.edge(b.fallTo)
			}
			b.dead()
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.c.exit)
		b.dead()
	case *ast.DeferStmt:
		b.add(s) // marker: locksafe and ctxleak resolve deferred calls here
	case *ast.ExprStmt:
		b.add(s)
		if b.isTerminal != nil && b.isTerminal(s) {
			b.edge(b.c.exit)
			b.dead()
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assign, Send, IncDec, Decl, Go: straight-line effects.
		b.add(s)
	}
}

// caseClauses builds the shared fan-out of switch and type-switch
// bodies. allowFall enables fallthrough edges (plain switch only).
func (b *cfgBuilder) caseClauses(label string, clauses []ast.Stmt, allowFall bool) {
	head := b.cur
	after := b.newBlock()
	b.push(label, after, nil)
	entries := make([]*block, len(clauses))
	for i := range clauses {
		entries[i] = b.newBlock()
	}
	hasDefault := false
	savedFall := b.fallTo
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		head.succs = append(head.succs, entries[i])
		b.cur = entries[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallTo = nil
		if allowFall && i+1 < len(clauses) {
			b.fallTo = entries[i+1]
		}
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.edge(after)
	}
	b.fallTo = savedFall
	if !hasDefault {
		head.succs = append(head.succs, after)
	}
	b.pop()
	b.cur = after
}

// cond decomposes a branch condition through short-circuit operators,
// wiring e's leaves so evaluation order and conditionality are edges
// the solver sees. Leaves the builder on a fresh dead block.
func (b *cfgBuilder) cond(e ast.Expr, t, f *block) {
	switch e := unparen(e).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(e.X, mid, f)
			b.cur = mid
			b.cond(e.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(e.X, t, mid)
			b.cur = mid
			b.cond(e.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b.cond(e.X, f, t)
			return
		}
	}
	b.add(e)
	b.edge(t)
	b.edge(f)
	b.dead()
}

// forwardSolve runs a forward dataflow analysis over c to fixpoint
// and returns the fact at entry of every reached block. transfer maps
// a block-entry fact to the block-exit fact; join merges facts at
// control-flow merges; equal detects the fixpoint.
//
// Termination requires the usual lattice conditions: join monotone
// and the fact height finite (both rules use small maps whose keys
// are drawn from the function's syntax, so height is bounded by the
// function size).
func forwardSolve[F any](c *cfg, entry F, join func(F, F) F, equal func(F, F) bool, transfer func(F, *block) F) map[*block]F {
	in := map[*block]F{c.entry: entry}
	work := []*block{c.entry}
	queued := map[*block]bool{c.entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := transfer(in[blk], blk)
		for _, s := range blk.succs {
			old, ok := in[s]
			merged := out
			if ok {
				merged = join(old, out)
			}
			if !ok || !equal(old, merged) {
				in[s] = merged
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// funcBodies invokes fn for every function body in file — FuncDecl
// bodies and every function literal, each analyzed as its own CFG.
func funcBodies(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Body)
			}
		case *ast.FuncLit:
			fn(n.Body)
		}
		return true
	})
}
