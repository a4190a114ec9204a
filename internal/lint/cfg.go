package lint

// Intraprocedural control-flow graphs over go/ast, plus the generic
// forward worklist solver the path-sensitive check (mutexhygiene) runs
// on. Built on the standard library only, like the rest of the framework.
//
// The graph decomposes one function body into basic blocks of
// straight-line nodes. Composite control statements never appear as
// nodes; instead their pieces are distributed:
//
//   - if/for:       the condition expression is a node in the head block
//   - range:        the ranged expression is a node in the head block
//   - switch:       init/tag in the head; each case's exprs start its block
//   - select:       the *ast.SelectStmt itself is a node in the head block
//     (shallow: a marker that a select blocks here — analyzers
//     must not descend into it, the clause bodies have their
//     own blocks) and each clause's comm statement starts the
//     clause block
//   - return:       the *ast.ReturnStmt is the block's final node, with an
//     edge to Exit
//   - panic(x):     edge to PanicExit (a separate sink, so leak-style
//     checks can reason about returns only)
//   - goto/break/continue/fallthrough: edges, never nodes
//
// Everything else (assignments, calls, defer, go, send, incdec, decls)
// is an ordinary node in source order. Function literals are opaque
// values: their bodies get their own graphs, never nodes in the
// enclosing one.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block.
type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

func (b *cfgBlock) addSucc(s *cfgBlock) {
	for _, have := range b.succs {
		if have == s {
			return
		}
	}
	b.succs = append(b.succs, s)
	s.preds = append(s.preds, b)
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks []*cfgBlock
	entry  *cfgBlock
	// exit collects every normal return and the fall-off-the-end path.
	exit *cfgBlock
	// panicExit collects explicit panic(...) terminations. Kept apart from
	// exit so resource-leak checks can confine themselves to returns.
	panicExit *cfgBlock
}

// cfgLabel tracks one labeled statement's jump targets while building.
type cfgLabel struct {
	breakTo    *cfgBlock // labeled loop/switch/select break target
	continueTo *cfgBlock // labeled loop continue target
	gotoTo     *cfgBlock // the labeled statement itself
}

type cfgBuilder struct {
	g *funcCFG
	// cur is the block under construction; nil after a terminator until
	// the next statement opens a fresh (unreachable) block.
	cur *cfgBlock
	// breakTo/continueTo are the innermost unlabeled targets.
	breakTo    []*cfgBlock
	continueTo []*cfgBlock
	labels     map[string]*cfgLabel
	// pendingGotos are forward gotos awaiting their label.
	pendingGotos map[string][]*cfgBlock
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g, labels: map[string]*cfgLabel{}, pendingGotos: map[string][]*cfgBlock{}}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	g.panicExit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	if b.cur != nil {
		b.cur.addSucc(g.exit)
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// branchBlock opens a fresh block entered from `from`.
func (b *cfgBuilder) branchBlock(from *cfgBlock) *cfgBlock {
	blk := b.newBlock()
	from.addSucc(blk)
	return blk
}

// here returns the block statements should currently append to, opening a
// fresh unreachable block after a terminator (dead code still gets a
// syntactically well-formed — if unreachable — home).
func (b *cfgBuilder) here() *cfgBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.here()
	blk.nodes = append(blk.nodes, n)
}

func (b *cfgBuilder) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		b.stmt(s)
	}
}

// isPanicCall reports whether stmt is a call of the predeclared panic.
func isPanicCall(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	// The predeclared panic cannot be shadowed by anything callable that
	// we'd mistake here without a types lookup; the name test keeps the
	// builder independent of type information.
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.here().addSucc(b.g.exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		b.labeled(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.here()
		follow := b.newBlock()
		b.cur = b.branchBlock(head)
		b.stmt(s.Body)
		if b.cur != nil {
			b.cur.addSucc(follow)
		}
		if s.Else != nil {
			b.cur = b.branchBlock(head)
			b.stmt(s.Else)
			if b.cur != nil {
				b.cur.addSucc(follow)
			}
		} else {
			head.addSucc(follow)
		}
		b.cur = follow

	case *ast.ForStmt, *ast.RangeStmt:
		b.loop(s, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, false)

	case *ast.SelectStmt:
		b.add(s) // shallow marker: "a select blocks here"
		head := b.here()
		follow := b.newBlock()
		b.pushBreak(follow)
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			clause := b.branchBlock(head)
			if cc.Comm != nil {
				clause.nodes = append(clause.nodes, cc.Comm)
			}
			b.cur = clause
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.cur.addSucc(follow)
			}
		}
		b.popBreak()
		// An empty select blocks forever: follow then has no predecessors
		// and everything after it is correctly unreachable.
		b.cur = follow

	case *ast.ExprStmt:
		if isPanicCall(s) {
			b.add(s)
			b.here().addSucc(b.g.panicExit)
			b.cur = nil
			return
		}
		b.add(s)

	default:
		// AssignStmt, DeclStmt, DeferStmt, GoStmt, SendStmt, IncDecStmt,
		// EmptyStmt: straight-line nodes.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// switchBody lowers a (type)switch body: every case gets its own block
// fed from the head; fallthrough chains case bodies; a missing default
// adds the head→follow edge.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, allowFallthrough bool) {
	head := b.here()
	follow := b.newBlock()
	b.pushBreak(follow)

	type caseBlocks struct {
		cc    *ast.CaseClause
		block *cfgBlock
	}
	var cases []caseBlocks
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := b.branchBlock(head)
		for _, e := range cc.List {
			blk.nodes = append(blk.nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		cases = append(cases, caseBlocks{cc, blk})
	}
	for i, c := range cases {
		b.cur = c.block
		b.stmtListWithFallthrough(c.cc.Body, func() *cfgBlock {
			if allowFallthrough && i+1 < len(cases) {
				return cases[i+1].block
			}
			return follow
		})
		if b.cur != nil {
			b.cur.addSucc(follow)
		}
	}
	if !hasDefault {
		head.addSucc(follow)
	}
	b.popBreak()
	b.cur = follow
}

// stmtListWithFallthrough runs a case body where a trailing fallthrough
// jumps to next() instead of being an error.
func (b *cfgBuilder) stmtListWithFallthrough(stmts []ast.Stmt, next func() *cfgBlock) {
	for _, s := range stmts {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			b.here().addSucc(next())
			b.cur = nil
			return
		}
		b.stmt(s)
	}
}

func (b *cfgBuilder) pushLoop(breakTo, continueTo *cfgBlock) {
	b.breakTo = append(b.breakTo, breakTo)
	b.continueTo = append(b.continueTo, continueTo)
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *cfgBuilder) pushBreak(to *cfgBlock) {
	b.breakTo = append(b.breakTo, to)
	b.continueTo = append(b.continueTo, nil)
}

func (b *cfgBuilder) popBreak() { b.popLoop() }

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var to *cfgBlock
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil {
				to = l.breakTo
			}
		} else {
			for i := len(b.breakTo) - 1; i >= 0; i-- {
				if b.breakTo[i] != nil {
					to = b.breakTo[i]
					break
				}
			}
		}
		if to != nil {
			b.here().addSucc(to)
		}
		b.cur = nil
	case token.CONTINUE:
		var to *cfgBlock
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil {
				to = l.continueTo
			}
		} else {
			for i := len(b.continueTo) - 1; i >= 0; i-- {
				if b.continueTo[i] != nil {
					to = b.continueTo[i]
					break
				}
			}
		}
		if to != nil {
			b.here().addSucc(to)
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			if l := b.labels[s.Label.Name]; l != nil && l.gotoTo != nil {
				b.here().addSucc(l.gotoTo)
			} else {
				from := b.here()
				b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], from)
			}
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Only legal as the final statement of a case body, which
		// stmtListWithFallthrough intercepts; a stray one terminates flow.
		b.cur = nil
	}
}

func (b *cfgBuilder) labeled(s *ast.LabeledStmt) {
	// The labeled statement starts its own block: a goto target must have
	// a block boundary.
	target := b.newBlock()
	if b.cur != nil {
		b.cur.addSucc(target)
	}
	for _, from := range b.pendingGotos[s.Label.Name] {
		from.addSucc(target)
	}
	delete(b.pendingGotos, s.Label.Name)

	l := &cfgLabel{gotoTo: target}
	b.labels[s.Label.Name] = l
	b.cur = target

	switch inner := s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		b.loop(inner, l)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.labeledSwitch(l, inner)
	default:
		b.stmt(s.Stmt)
	}
}

// loop lowers a for/range statement. A labeled loop passes its label, so
// `break L` / `continue L` resolve while the body is being built.
func (b *cfgBuilder) loop(s ast.Stmt, l *cfgLabel) {
	var head, follow, cont, body *cfgBlock
	var stmtBody *ast.BlockStmt
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head = b.newBlock()
		b.here().addSucc(head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		follow = b.newBlock()
		cont = b.newBlock()
		body = b.branchBlock(head)
		if s.Cond != nil {
			head.addSucc(follow)
		}
		if s.Post != nil {
			cont.nodes = append(cont.nodes, s.Post)
		}
		cont.addSucc(head)
		stmtBody = s.Body
	case *ast.RangeStmt:
		b.add(s.X)
		head = b.newBlock()
		b.here().addSucc(head)
		follow = b.newBlock()
		head.addSucc(follow)
		body = b.branchBlock(head)
		cont = head
		stmtBody = s.Body
	}
	if l != nil {
		l.breakTo, l.continueTo = follow, cont
	}
	b.pushLoop(follow, cont)
	b.cur = body
	b.stmt(stmtBody)
	b.popLoop()
	if b.cur != nil {
		b.cur.addSucc(cont)
	}
	b.cur = follow
}

// labeledSwitch lowers a labeled switch/select so `break L` resolves.
func (b *cfgBuilder) labeledSwitch(l *cfgLabel, s ast.Stmt) {
	// The follow block does not exist until the lowering runs; register a
	// placeholder the lowering will wire, then alias it.
	placeholder := b.newBlock()
	l.breakTo = placeholder
	b.stmt(s)
	// b.cur is now the real follow block: forward the placeholder.
	if b.cur != nil && len(placeholder.preds) > 0 {
		placeholder.addSucc(b.cur)
	}
}

// solveForward runs a forward dataflow analysis over g to fixpoint.
// transfer computes a block's out-fact from its in-fact and must be
// monotone w.r.t. merge; merge joins facts at confluence points; equal
// detects the fixpoint. Returns the in-fact of every reached block
// (unreachable blocks are absent).
func solveForward[F any](g *funcCFG, entry F, transfer func(*cfgBlock, F) F, merge func(F, F) F, equal func(F, F) bool) map[*cfgBlock]F {
	in := map[*cfgBlock]F{g.entry: entry}
	out := map[*cfgBlock]F{}
	work := []*cfgBlock{g.entry}
	inWork := map[*cfgBlock]bool{g.entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk] = false
		o := transfer(blk, in[blk])
		if prev, ok := out[blk]; ok && equal(prev, o) {
			continue
		}
		out[blk] = o
		for _, s := range blk.succs {
			ni := o
			if cur, ok := in[s]; ok {
				ni = merge(cur, o)
				if equal(cur, ni) {
					continue
				}
			}
			in[s] = ni
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// fileFuncBodies returns every function body in f: each declaration's,
// then the function literals nested in it, each analyzed independently.
func fileFuncBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, lit.Body)
			}
			return true
		})
	}
	return out
}
