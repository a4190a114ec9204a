package lint

import (
	"go/ast"
	"go/types"
)

// mutexHygieneCheck verifies, path-sensitively, that a sync.Mutex/RWMutex
// acquired in a function is released on every return path, and flags
// blocking operations (channel sends/receives, select, time.Sleep,
// WaitGroup.Wait) executed while an RWMutex write lock is held — the
// classic self-deadlock shape under reader pressure.
//
// The analysis runs on the package's control-flow graphs (cfg.go): each
// acquisition is traced through a forward dataflow of (held, deferred)
// three-valued facts, so locks released along goto/labeled-break paths,
// re-acquired across loop iterations, or covered by a late defer are
// tracked exactly where the syntax-level predecessor of this check had to
// give up or guess. Two false-positive classes of that predecessor are
// gone by construction: a `select` with a default clause never blocks and
// is not reported, and code between a Lock and a *later installed*
// deferred Unlock is distinguished from code with no release at all.
// Lock helpers that intentionally hand a held lock to their caller are
// annotated with //lint:ignore mutexhygiene <reason>.
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

// triState is the lattice value for one boolean dataflow dimension.
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

// mhFact tracks one lock through the CFG: whether it is held, and whether
// a deferred release has been installed on this path.
type mhFact struct {
	held     triState
	deferred triState
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
	// commOwner maps each select comm statement to its select, so clause
	// entry nodes are not reported separately from the select marker.
	commOwner map[ast.Node]*ast.SelectStmt
}

// analyze builds the function's CFG and traces every lock acquired in it.
func (a *mutexAnalyzer) analyze() {
	g := buildCFG(a.funcBody)
	a.commOwner = map[ast.Node]*ast.SelectStmt{}
	ast.Inspect(a.funcBody, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					a.commOwner[cc.Comm] = sel
				}
			}
		}
		return true
	})

	// Collect the distinct acquisitions and their sites.
	sites := a.lockSites(g)
	seen := map[lockRef]bool{}
	var refs []lockRef
	for _, s := range sites {
		if !seen[s.ref] {
			seen[s.ref] = true
			refs = append(refs, s.ref)
		}
	}

	for _, ref := range refs {
		// No release anywhere in the function: either the lock
		// intentionally escapes (annotate it) or it is a leak. The
		// dataflow would report every return; one finding at the
		// acquisition is the actionable shape.
		if !a.containsUnlock(a.funcBody, ref) {
			for _, s := range sites {
				if s.ref == ref {
					a.pass.Reportf(s.at.Pos(), "%s.%s() is never released in this function (deferred or inline Unlock missing; annotate if the lock intentionally escapes)",
						ref.recv, lockMethodName(ref))
				}
			}
			continue
		}
		a.trace(g, ref)
	}
}

// lockSite is one Lock/RLock statement of the function.
type lockSite struct {
	ref lockRef
	at  ast.Expr
}

// lockSites returns every Lock/RLock statement in g, in block order.
func (a *mutexAnalyzer) lockSites(g *funcCFG) []lockSite {
	var sites []lockSite
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if stmt, ok := n.(ast.Stmt); ok {
				if ref, at, ok := a.stmtLock(stmt); ok {
					sites = append(sites, lockSite{ref, at})
				}
			}
		}
	}
	return sites
}

// trace solves the (held, deferred) dataflow for ref over g and reports
// on a second, fact-replaying pass.
func (a *mutexAnalyzer) trace(g *funcCFG, ref lockRef) {
	transfer := func(blk *cfgBlock, in mhFact) mhFact {
		return a.transferBlock(blk, ref, in, nil)
	}
	in := solveForward(g, mhFact{triFalse, triFalse}, transfer,
		func(x, y mhFact) mhFact {
			return mhFact{mergeTri(x.held, y.held), mergeTri(x.deferred, y.deferred)}
		},
		func(x, y mhFact) bool { return x == y },
	)

	hasDefer := a.hasDeferredRelease(ref)
	for _, blk := range g.blocks {
		fact, reached := in[blk]
		if !reached {
			continue
		}
		a.transferBlock(blk, ref, fact, func(n ast.Node, f mhFact) {
			a.reportNode(n, ref, f, hasDefer)
		})
	}
}

// transferBlock runs ref's transfer function over one block. When report
// is non-nil it is invoked per node with the fact holding *before* the
// node executes (the replay pass).
func (a *mutexAnalyzer) transferBlock(blk *cfgBlock, ref lockRef, in mhFact, report func(ast.Node, mhFact)) mhFact {
	f := in
	for _, n := range blk.nodes {
		if report != nil {
			report(n, f)
		}
		stmt, ok := n.(ast.Stmt)
		if !ok {
			continue
		}
		if r, _, ok := a.stmtLock(stmt); ok && r.recv == ref.recv && r.read == ref.read {
			f.held = triTrue
			continue
		}
		if a.stmtUnlocks(stmt, ref) {
			f.held = triFalse
			continue
		}
		if a.stmtDefersUnlock(stmt, ref) {
			f.deferred = triTrue
			continue
		}
	}
	return f
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
	if _, isComm := a.commOwner[n]; isComm {
		// Clause entry of a select: the select marker carries the report.
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
// one CFG node (function literals excluded: they run in their own frame,
// select markers excluded: their clauses live in other blocks).
func (a *mutexAnalyzer) reportBlockingExprs(n ast.Node, ref lockRef) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.SelectStmt:
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
	ast.Inspect(a.funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ds, ok := n.(*ast.DeferStmt); ok && a.stmtDefersUnlock(ds, ref) {
			found = true
		}
		return true
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
		l.rw = typeNameIs(s.Recv(), "sync", "RWMutex")
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

func typeNameIs(t types.Type, pkgPath, name string) bool {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
