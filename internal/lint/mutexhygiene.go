package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mutexHygieneCheck verifies, path-sensitively, that a sync.Mutex/RWMutex
// acquired in a function is released on every return path, and flags
// blocking operations (channel sends/receives, select, time.Sleep,
// WaitGroup.Wait) executed while an RWMutex write lock is held — the
// classic self-deadlock shape under reader pressure.
//
// The analysis walks each function body's statements once per acquired
// lock (lockWalk), carrying three-valued (held, deferred) facts: branches
// join where they meet, a break or continue hands its facts to the
// statement it leaves or the loop pass it starts, and a loop body is
// walked until the facts at its head stop changing. So locks re-acquired
// across loop iterations, or covered by a late defer, are tracked
// exactly; a `select` with a default clause never blocks and is not
// reported; and code between a Lock and a *later installed* deferred
// Unlock is distinguished from code with no release at all. The walker
// does not follow labels or goto: a locking function with either is
// reported and not traced. Lock helpers that intentionally hand a held
// lock to their caller are annotated with //lint:ignore mutexhygiene
// <reason>.
func mutexHygieneCheck() *Check {
	c := &Check{Name: "mutexhygiene"}
	c.Run = func(p *Pass) {
		for _, pkg := range p.Module.Packages {
			for _, f := range pkg.Files {
				for _, body := range fileFuncBodies(f) {
					a := &mutexAnalyzer{pass: p, pkg: pkg, funcBody: body}
					a.analyze()
				}
			}
		}
	}
	return c
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

// triState is the lattice value for one boolean fact.
type triState uint8

const (
	triFalse triState = iota
	triTrue
	triMixed
)

func mergeTri(a, b triState) triState {
	if a == b {
		return a
	}
	return triMixed
}

// mhFact is what the paths reaching a statement know of one lock: whether
// it is held, whether a deferred release has been installed, and whether
// any path reaches the statement at all (the zero mhFact reaches none).
type mhFact struct {
	held     triState
	deferred triState
	live     bool
}

// join is the fact where two sets of paths meet.
func join(x, y mhFact) mhFact {
	switch {
	case !x.live:
		return y
	case !y.live:
		return x
	}
	return mhFact{mergeTri(x.held, y.held), mergeTri(x.deferred, y.deferred), true}
}

// lockRef identifies one acquisition: the receiver expression text plus
// whether it was a read lock and whether the mutex is an RWMutex.
type lockRef struct {
	recv string
	read bool // RLock (vs Lock)
	rw   bool // receiver is a sync.RWMutex
}

type mutexAnalyzer struct {
	pass     *Pass
	pkg      *Package
	funcBody *ast.BlockStmt
}

// inspect calls visit on every node of the function body outside its
// function literals, which are analyzed as functions of their own.
func (a *mutexAnalyzer) inspect(visit func(ast.Node)) {
	ast.Inspect(a.funcBody, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		visit(n)
		return true
	})
}

// analyze traces every lock acquired in the function.
func (a *mutexAnalyzer) analyze() {
	sites := a.lockSites()
	if len(sites) == 0 {
		return
	}
	var jumps []ast.Node
	a.inspect(func(n ast.Node) {
		br, isBranch := n.(*ast.BranchStmt)
		if _, isLabel := n.(*ast.LabeledStmt); isLabel || isBranch && br.Tok == token.GOTO {
			jumps = append(jumps, n)
		}
	})
	for _, n := range jumps {
		a.pass.Reportf(n.Pos(), "mutexhygiene does not follow labels or goto")
	}
	if len(jumps) > 0 {
		return
	}

	seen := map[lockRef]bool{}
	for _, s := range sites {
		if seen[s.ref] {
			continue
		}
		seen[s.ref] = true
		ref := s.ref
		// No release anywhere in the function: either the lock
		// intentionally escapes (annotate it) or it is a leak. The walk
		// would report every return; one finding at the acquisition is
		// the actionable shape.
		if !a.containsUnlock(a.funcBody, ref) {
			for _, s := range sites {
				if s.ref == ref {
					a.pass.Reportf(s.at.Pos(), "%s.%s() is never released in this function (deferred or inline Unlock missing; annotate if the lock intentionally escapes)",
						ref.recv, lockMethodName(ref))
				}
			}
			continue
		}
		w := &lockWalk{a: a, ref: ref, hasDefer: a.hasDeferredRelease(ref), report: true}
		w.stmts(a.funcBody.List, mhFact{live: true})
	}
}

// lockSite is one Lock/RLock statement of the function.
type lockSite struct {
	ref lockRef
	at  ast.Expr
}

// lockSites returns every Lock/RLock statement of the function, in
// source order.
func (a *mutexAnalyzer) lockSites() []lockSite {
	var sites []lockSite
	a.inspect(func(n ast.Node) {
		if stmt, ok := n.(ast.Stmt); ok {
			if ref, at, ok := a.stmtLock(stmt); ok {
				sites = append(sites, lockSite{ref, at})
			}
		}
	})
	return sites
}

// lockWalk carries one lock's facts through a function body, statement
// by statement, reporting each statement with the facts in force before
// it.
type lockWalk struct {
	a        *mutexAnalyzer
	ref      lockRef
	hasDefer bool
	// report is off while a loop body is walked toward its fixed point,
	// so every statement is reported once, with its fixed-point facts.
	report bool
	// frames are the enclosing loops, switches and selects, innermost
	// last.
	frames []*exitFrame
}

// exitFrame collects the facts that leave one enclosing statement early.
type exitFrame struct {
	loop bool
	brk  mhFact // the breaks out of it
	// next: for a loop, the continues to its next pass; for a switch, a
	// fallthrough into the clause being walked.
	next mhFact
}

func (w *lockWalk) stmts(list []ast.Stmt, f mhFact) mhFact {
	for _, s := range list {
		f = w.stmt(s, f)
	}
	return f
}

// stmt walks s from f and returns the facts after it.
func (w *lockWalk) stmt(s ast.Stmt, f mhFact) mhFact {
	if !f.live {
		return f
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, f)
	case *ast.ReturnStmt:
		w.node(s, f)
		return mhFact{}
	case *ast.BranchStmt:
		w.branch(s.Tok, f)
		return mhFact{}
	case *ast.IfStmt:
		f = w.node(s.Init, f)
		w.node(s.Cond, f)
		then := w.stmt(s.Body, f)
		if s.Else != nil {
			f = w.stmt(s.Else, f)
		}
		return join(then, f)
	case *ast.ForStmt:
		f = w.node(s.Init, f)
		return w.loop(s.Cond, s.Post, s.Body, s.Cond != nil, f)
	case *ast.RangeStmt:
		w.node(s.X, f)
		return w.loop(nil, nil, s.Body, true, f)
	case *ast.SwitchStmt:
		f = w.node(s.Init, f)
		w.node(s.Tag, f)
		return w.clauses(s.Body, f, false)
	case *ast.TypeSwitchStmt:
		f = w.node(s.Init, f)
		w.node(s.Assign, f)
		return w.clauses(s.Body, f, false)
	case *ast.SelectStmt:
		w.node(s, f)
		return w.clauses(s.Body, f, true)
	case *ast.EmptyStmt:
		return f
	}
	f = w.node(s, f)
	if isPanicCall(s) {
		return mhFact{}
	}
	return f
}

// node reports n, a simple statement or an expression, against the facts
// before it and returns the facts after it. A nil n leaves f as it is.
func (w *lockWalk) node(n ast.Node, f mhFact) mhFact {
	if n == nil || !f.live {
		return f
	}
	if w.report {
		w.a.reportNode(n, w.ref, f, w.hasDefer)
	}
	stmt, ok := n.(ast.Stmt)
	switch {
	case !ok:
	case w.a.stmtLocks(stmt, w.ref):
		f.held = triTrue
	case w.a.stmtUnlocks(stmt, w.ref):
		f.held = triFalse
	case w.a.stmtDefersUnlock(stmt, w.ref):
		f.deferred = triTrue
	}
	return f
}

// branch hands f to the frame that a break, continue or fallthrough
// leaves to: break to the innermost frame, continue to the innermost
// loop, fallthrough to the switch it ends a clause of.
func (w *lockWalk) branch(tok token.Token, f mhFact) {
	for i := len(w.frames) - 1; i >= 0; i-- {
		fr := w.frames[i]
		switch tok {
		case token.BREAK:
			fr.brk = join(fr.brk, f)
		case token.FALLTHROUGH:
			fr.next = join(fr.next, f)
		case token.CONTINUE:
			if !fr.loop {
				continue
			}
			fr.next = join(fr.next, f)
		}
		return
	}
}

// loop walks a for or range statement entered with f: its body is walked
// with reporting off until the facts at its head stop changing, then once
// more with reporting as it was. cond and post may be nil; exits reports
// whether the head itself can leave the loop (a condition or a range).
func (w *lockWalk) loop(cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, exits bool, f mhFact) mhFact {
	report := w.report
	w.report = false
	head := f
	for {
		next := join(f, w.pass(cond, post, body, head).next)
		if next == head {
			break
		}
		head = next
	}
	w.report = report
	fr := w.pass(cond, post, body, head)
	if exits {
		return join(head, fr.brk)
	}
	return fr.brk
}

// pass walks one pass of a loop from the facts at its head. The frame it
// returns holds the facts its breaks leave with and, in next, the facts
// that reach the head again.
func (w *lockWalk) pass(cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, head mhFact) *exitFrame {
	w.node(cond, head)
	fr := &exitFrame{loop: true}
	w.frames = append(w.frames, fr)
	end := w.stmt(body, head)
	w.frames = w.frames[:len(w.frames)-1]
	fr.next = w.node(post, join(end, fr.next))
	return fr
}

// clauses walks the clauses of a switch or select entered with f. Each
// clause starts from f, joined with a fallthrough into it; the statement
// ends where its clauses and breaks meet and, for a switch without a
// default clause, f itself. A select blocks until one clause runs.
func (w *lockWalk) clauses(body *ast.BlockStmt, f mhFact, isSelect bool) mhFact {
	fr := &exitFrame{}
	w.frames = append(w.frames, fr)
	out, bypass := mhFact{}, !isSelect
	for _, c := range body.List {
		in := join(f, fr.next)
		fr.next = mhFact{}
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.node(e, in)
			}
			bypass = bypass && c.List != nil
			list = c.Body
		case *ast.CommClause:
			// The comm statement is not reported: the select is.
			list = c.Body
		}
		out = join(out, w.stmts(list, in))
	}
	w.frames = w.frames[:len(w.frames)-1]
	if bypass {
		out = join(out, f)
	}
	return join(out, fr.brk)
}

// isPanicCall reports whether stmt is a call of the predeclared panic,
// after which the path does not reach the function's returns.
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
	return ok && id.Name == "panic"
}

// reportNode emits the diagnostics for one node given the fact in force
// before it.
func (a *mutexAnalyzer) reportNode(n ast.Node, ref lockRef, f mhFact, hasDefer bool) {
	if ret, ok := n.(*ast.ReturnStmt); ok {
		if f.held == triTrue && f.deferred == triFalse {
			if hasDefer {
				a.pass.Reportf(ret.Pos(), "return between %s.%s() and its deferred release",
					ref.recv, lockMethodName(ref))
			} else {
				a.pass.Reportf(ret.Pos(), "return while %s is held by %s() with no release on this path",
					ref.recv, lockMethodName(ref))
			}
		}
		return
	}
	// Blocking operations only matter under a held RWMutex *write* lock
	// (readers don't starve readers; a plain Mutex across a send is a
	// throughput question, not the starvation shape hunted here). A
	// deferred release does not help: the lock is held until the function
	// returns, and the operation blocks before that.
	if ref.read || !ref.rw || f.held != triTrue {
		return
	}
	switch n := n.(type) {
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			a.pass.Reportf(n.Pos(), "select while %s is write-locked (blocks all readers and writers)", ref.recv)
		}
	case *ast.SendStmt:
		a.pass.Reportf(n.Pos(), "channel send while %s is write-locked (blocks all readers and writers)", ref.recv)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred calls run at exit; a spawned goroutine has its own
		// locking discipline.
	default:
		a.reportBlockingExprs(n, ref)
	}
}

// selectHasDefault reports whether sel can complete without blocking.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// reportBlockingExprs flags `<-ch`, time.Sleep and WaitGroup.Wait inside
// one simple statement or expression (function literals excluded: they run
// in their own frame).
func (a *mutexAnalyzer) reportBlockingExprs(n ast.Node, ref lockRef) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			a.pass.Reportf(n.Pos(), "channel send while %s is write-locked (blocks all readers and writers)", ref.recv)
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				a.pass.Reportf(n.Pos(), "channel receive while %s is write-locked (blocks all readers and writers)", ref.recv)
			}
		case *ast.CallExpr:
			sel, isSel := n.Fun.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			obj, isFunc := a.pkg.Info.Uses[sel.Sel].(*types.Func)
			if !isFunc || obj.Pkg() == nil {
				return true
			}
			switch {
			case obj.Pkg().Path() == "time" && obj.Name() == "Sleep":
				a.pass.Reportf(n.Pos(), "time.Sleep while %s is write-locked", ref.recv)
			case obj.Pkg().Path() == "sync" && obj.Name() == "Wait":
				a.pass.Reportf(n.Pos(), "%s while %s is write-locked", types.ExprString(n.Fun), ref.recv)
			}
		}
		return true
	})
}

// hasDeferredRelease reports whether any defer in the function releases
// ref (used only to pick the more precise message for a held return).
func (a *mutexAnalyzer) hasDeferredRelease(ref lockRef) bool {
	found := false
	a.inspect(func(n ast.Node) {
		if ds, ok := n.(*ast.DeferStmt); ok && a.stmtDefersUnlock(ds, ref) {
			found = true
		}
	})
	return found
}

// stmtLock returns the lockRef when stmt is `recv.Lock()` or `recv.RLock()`.
func (a *mutexAnalyzer) stmtLock(stmt ast.Stmt) (lockRef, ast.Expr, bool) {
	l, ok := stmtSyncLock(a.pkg, stmt)
	if !ok || !l.acquire() {
		return lockRef{}, nil, false
	}
	return lockRef{recv: types.ExprString(l.recv), read: l.read(), rw: l.rw}, l.call.Fun, true
}

// stmtLocks reports whether stmt acquires ref.
func (a *mutexAnalyzer) stmtLocks(stmt ast.Stmt, ref lockRef) bool {
	r, _, ok := a.stmtLock(stmt)
	return ok && r.recv == ref.recv && r.read == ref.read
}

// isUnlockCall reports whether call releases ref (Unlock pairs with Lock,
// RUnlock with RLock).
func (a *mutexAnalyzer) isUnlockCall(call *ast.CallExpr, ref lockRef) bool {
	l, ok := resolveSyncLock(a.pkg, call)
	if !ok || types.ExprString(l.recv) != ref.recv {
		return false
	}
	if ref.read {
		return l.method == "RUnlock"
	}
	return l.method == "Unlock"
}

// stmtUnlocks reports whether stmt is an inline `recv.Unlock()`.
func (a *mutexAnalyzer) stmtUnlocks(stmt ast.Stmt, ref lockRef) bool {
	l, ok := stmtSyncLock(a.pkg, stmt)
	return ok && a.isUnlockCall(l.call, ref)
}

// stmtDefersUnlock reports whether stmt defers a release of ref, either
// directly (`defer mu.Unlock()`) or through a function literal whose body
// releases it.
func (a *mutexAnalyzer) stmtDefersUnlock(stmt ast.Stmt, ref lockRef) bool {
	ds, isDefer := stmt.(*ast.DeferStmt)
	if !isDefer {
		return false
	}
	if a.isUnlockCall(ds.Call, ref) {
		return true
	}
	if lit, isLit := ds.Call.Fun.(*ast.FuncLit); isLit {
		return a.containsUnlock(lit.Body, ref)
	}
	return false
}

// containsUnlock reports whether any release of ref appears under n
// (function literals included: a deferred closure is a common release
// site).
func (a *mutexAnalyzer) containsUnlock(n ast.Node, ref lockRef) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, isCall := n.(*ast.CallExpr); isCall && a.isUnlockCall(call, ref) {
			found = true
		}
		return true
	})
	return found
}

func lockMethodName(ref lockRef) string {
	if ref.read {
		return "RLock"
	}
	return "Lock"
}

// syncLock is a call to a lock-family method of sync.Mutex or
// sync.RWMutex, resolved through go/types; the analyzer keys the lock by
// its receiver text.
type syncLock struct {
	call   *ast.CallExpr
	recv   ast.Expr // the mutex: x in x.Lock()
	method string   // Lock, Unlock, RLock or RUnlock
	rw     bool     // the receiver is a sync.RWMutex
}

// acquire reports whether the call takes the lock.
func (l syncLock) acquire() bool { return l.method == "Lock" || l.method == "RLock" }

// read reports whether the call is the read half of an RWMutex.
func (l syncLock) read() bool { return l.method == "RLock" || l.method == "RUnlock" }

// resolveSyncLock resolves call to a sync lock-family method. TryLock and
// TryRLock never block and are ignored.
func resolveSyncLock(pkg *Package, call *ast.CallExpr) (syncLock, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return syncLock{}, false
	}
	fn, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return syncLock{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return syncLock{}, false
	}
	l := syncLock{call: call, recv: sel.X, method: fn.Name()}
	if s, hasSel := pkg.Info.Selections[sel]; hasSel {
		l.rw = isRWMutex(s.Recv())
	}
	return l, true
}

// stmtSyncLock resolves a statement that is a bare lock-family call.
func stmtSyncLock(pkg *Package, stmt ast.Stmt) (syncLock, bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return syncLock{}, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return syncLock{}, false
	}
	return resolveSyncLock(pkg, call)
}

// isRWMutex reports whether t is sync.RWMutex or a pointer to one.
func isRWMutex(t types.Type) bool {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RWMutex" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
