package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderCheck builds the module-wide lock-acquisition graph and reports
// every cycle in it as a potential deadlock. A lock is identified by its
// declaration (the struct field or package variable of sync.Mutex/RWMutex
// type), so two shard instances of the same field are one node — the
// standard static approximation. An edge A→B is recorded whenever B is
// acquired on a path where A is still held, either directly or through a
// call to a module function whose (transitive) summary acquires B. The
// held set is a CFG dataflow fact, so a lock released before the next
// acquisition — even along goto/branch paths — contributes no edge; a
// purely syntactic "Lock appears before Lock" scan would invent edges and
// cycles that no execution can take.
//
// Cycles are reported once per participating edge, each message naming
// the counter-acquisition site, so every half of an inversion is visible
// and individually suppressible. A self-loop (the same field acquired
// while an instance of it is held) is reported too — unless both
// acquisitions are read locks, which can always overlap.
func lockOrderCheck() *Check {
	c := &Check{
		Name: "lockorder",
		Doc:  "Cycles in the module-wide lock-acquisition order (potential deadlocks)",
	}
	c.Run = func(p *Pass) {
		a := &lockOrderAnalyzer{
			pass:      p,
			summaries: map[*types.Func]map[types.Object]lockAcq{},
			callees:   map[*types.Func][]*types.Func{},
			names:     map[types.Object]string{},
		}
		a.buildSummaries()
		a.buildEdges()
		a.reportCycles()
	}
	return c
}

// lockAcq is one acquisition of a lock: where, and in which mode.
type lockAcq struct {
	pos  token.Pos
	read bool
}

// lockEdge records "to was acquired while from was held".
type lockEdge struct {
	from, to types.Object
	fromAcq  lockAcq
	toAcq    lockAcq
	pos      token.Pos // reporting site: the inner Lock call or the call expr
	via      string    // callee name when the edge comes from a call summary
}

type lockOrderAnalyzer struct {
	pass      *Pass
	summaries map[*types.Func]map[types.Object]lockAcq
	callees   map[*types.Func][]*types.Func
	names     map[types.Object]string
	edges     []lockEdge
	edgeSeen  map[[2]types.Object]bool
}

// --- lock call resolution -------------------------------------------------

// syncLock is a call to a lock-family method of sync.Mutex or
// sync.RWMutex. It is the one place both lock analyzers resolve such calls
// through go/types; each then keys the lock its own way (mutexhygiene by
// receiver text, lockorder by declaration).
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

// lockCall is a lock-family call on a resolvable mutex object.
type lockCall struct {
	obj     types.Object // the mutex declaration (field or variable)
	display string       // "Type.field" or "pkg.var"
	read    bool
	acquire bool
	pos     token.Pos
}

// resolveLockCall keys a statement's lock call by the mutex's declaration.
func resolveLockCall(pkg *Package, stmt ast.Stmt) (lockCall, bool) {
	l, ok := stmtSyncLock(pkg, stmt)
	if !ok {
		return lockCall{}, false
	}
	lc := lockCall{pos: l.call.Pos(), read: l.read(), acquire: l.acquire()}
	switch recv := l.recv.(type) {
	case *ast.SelectorExpr:
		v, isVar := pkg.Info.Uses[recv.Sel].(*types.Var)
		if !isVar {
			return lockCall{}, false
		}
		lc.obj = v
		lc.display = recvDisplayName(pkg, recv.X) + "." + v.Name()
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(recv)
		if obj == nil {
			return lockCall{}, false
		}
		lc.obj = obj
		lc.display = pkg.Name + "." + obj.Name()
	default:
		return lockCall{}, false
	}
	return lc, true
}

// recvDisplayName names the struct type of the selector receiver x.
func recvDisplayName(pkg *Package, x ast.Expr) string {
	tv, hasType := pkg.Info.Types[x]
	if !hasType {
		return "?"
	}
	t := tv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return t.String()
}

// --- call summaries -------------------------------------------------------

// buildSummaries computes, for every module function, the transitive set
// of locks a call to it may acquire. Function literals are excluded from
// their enclosing function's summary (a stored closure runs later, a
// spawned one concurrently), which under-approximates immediately-invoked
// literals — a documented intraprocedural limit.
func (a *lockOrderAnalyzer) buildSummaries() {
	for _, pkg := range a.pass.Module.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				if !isFunc || fd.Body == nil {
					continue
				}
				fn, isObj := pkg.Info.Defs[fd.Name].(*types.Func)
				if !isObj {
					continue
				}
				direct := map[types.Object]lockAcq{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, isLit := n.(*ast.FuncLit); isLit {
						return false
					}
					if stmt, isStmt := n.(ast.Stmt); isStmt {
						if lc, ok := resolveLockCall(pkg, stmt); ok && lc.acquire {
							if _, seen := direct[lc.obj]; !seen {
								direct[lc.obj] = lockAcq{pos: lc.pos, read: lc.read}
							}
							a.names[lc.obj] = lc.display
						}
					}
					if call, isCall := n.(*ast.CallExpr); isCall {
						if callee, ok := staticCallee(pkg, call); ok {
							a.callees[fn] = append(a.callees[fn], callee)
						}
					}
					return true
				})
				a.summaries[fn] = direct
			}
		}
	}
	// Transitive closure by fixpoint; the module call graph is small.
	for changed := true; changed; {
		changed = false
		for fn, summ := range a.summaries {
			for _, callee := range a.callees[fn] {
				for obj, acq := range a.summaries[callee] {
					if _, seen := summ[obj]; !seen {
						summ[obj] = acq
						changed = true
					}
				}
			}
		}
	}
}

// staticCallee resolves call to a module-defined function or method.
// Interface method calls have no body to summarize and are skipped.
func staticCallee(pkg *Package, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, false
	}
	fn, isFunc := pkg.Info.Uses[id].(*types.Func)
	if !isFunc || fn.Pkg() == nil {
		return nil, false
	}
	return fn, true
}

// --- edge collection ------------------------------------------------------

// heldLocks is the dataflow fact: the locks that may be held, with their
// acquisition site. Merging keeps the earliest site and demotes the mode
// to write unless every path read-locked.
type heldLocks map[types.Object]lockAcq

func (h heldLocks) clone() heldLocks {
	out := make(heldLocks, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func mergeHeld(x, y heldLocks) heldLocks {
	out := x.clone()
	for obj, acq := range y {
		prev, seen := out[obj]
		if !seen {
			out[obj] = acq
			continue
		}
		merged := lockAcq{pos: prev.pos, read: prev.read && acq.read}
		if acq.pos < merged.pos {
			merged.pos = acq.pos
		}
		out[obj] = merged
	}
	return out
}

func equalHeld(x, y heldLocks) bool {
	if len(x) != len(y) {
		return false
	}
	for obj, acq := range x {
		if other, seen := y[obj]; !seen || other != acq {
			return false
		}
	}
	return true
}

// buildEdges solves the held-set dataflow over every function body
// (closures included, with an empty entry set) and collects edges on a
// replay pass over the solved in-facts.
func (a *lockOrderAnalyzer) buildEdges() {
	a.edgeSeen = map[[2]types.Object]bool{}
	for _, pkg := range a.pass.Module.Packages {
		for _, f := range pkg.Files {
			for _, body := range fileFuncBodies(f) {
				g := buildCFG(body)
				transfer := func(blk *cfgBlock, in heldLocks) heldLocks {
					return a.lockTransfer(pkg, blk, in, false)
				}
				in := solveForward(g, heldLocks{}, transfer, mergeHeld, equalHeld)
				for _, blk := range g.blocks {
					fact, reached := in[blk]
					if !reached {
						continue
					}
					a.lockTransfer(pkg, blk, fact, true)
				}
			}
		}
	}
}

// lockTransfer applies one block's lock operations to the held set; with
// emit set it also records acquisition edges.
func (a *lockOrderAnalyzer) lockTransfer(pkg *Package, blk *cfgBlock, in heldLocks, emit bool) heldLocks {
	f := in
	mutated := false
	mutable := func() heldLocks {
		if !mutated {
			f, mutated = f.clone(), true
		}
		return f
	}
	for _, node := range blk.nodes {
		if stmt, isStmt := node.(ast.Stmt); isStmt {
			if lc, ok := resolveLockCall(pkg, stmt); ok {
				if lc.acquire {
					a.names[lc.obj] = lc.display
					if emit {
						for held, acq := range f {
							a.addEdge(lockEdge{
								from: held, to: lc.obj,
								fromAcq: acq,
								toAcq:   lockAcq{pos: lc.pos, read: lc.read},
								pos:     lc.pos,
							})
						}
					}
					if _, already := f[lc.obj]; !already {
						mutable()[lc.obj] = lockAcq{pos: lc.pos, read: lc.read}
					}
				} else {
					if _, held := f[lc.obj]; held {
						delete(mutable(), lc.obj)
					}
				}
				continue
			}
		}
		if !emit || len(f) == 0 {
			continue
		}
		// Calls into the module transfer the held set across the call:
		// whatever the callee's summary acquires is acquired while f is
		// held. Deferred and spawned calls run outside this path.
		switch node.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			continue
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
				return false
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			callee, ok := staticCallee(pkg, call)
			if !ok {
				return true
			}
			for obj, acq := range a.summaries[callee] {
				for held, heldAcq := range f {
					a.addEdge(lockEdge{
						from: held, to: obj,
						fromAcq: heldAcq,
						toAcq:   acq,
						pos:     call.Pos(),
						via:     callee.Name(),
					})
				}
			}
			return true
		})
	}
	return f
}

// addEdge records the first witness of each (from, to) pair.
func (a *lockOrderAnalyzer) addEdge(e lockEdge) {
	key := [2]types.Object{e.from, e.to}
	if a.edgeSeen[key] {
		return
	}
	a.edgeSeen[key] = true
	a.edges = append(a.edges, e)
}

// --- cycle detection ------------------------------------------------------

// reportCycles finds strongly connected components of the acquisition
// graph and reports every edge inside one (plus self-loops), naming the
// counter-acquisition that closes the cycle.
func (a *lockOrderAnalyzer) reportCycles() {
	if len(a.edges) == 0 {
		return
	}
	var nodes []types.Object
	index := map[types.Object]int{}
	addNode := func(o types.Object) {
		if _, seen := index[o]; !seen {
			index[o] = len(nodes)
			nodes = append(nodes, o)
		}
	}
	for _, e := range a.edges {
		addNode(e.from)
		addNode(e.to)
	}
	adj := make([][]int, len(nodes))
	for _, e := range a.edges {
		adj[index[e.from]] = append(adj[index[e.from]], index[e.to])
	}
	comp := sccKosaraju(adj)
	compSize := map[int]int{}
	for _, c := range comp {
		compSize[c]++
	}

	var reports []lockEdge
	for _, e := range a.edges {
		u, v := index[e.from], index[e.to]
		if e.from == e.to {
			if e.fromAcq.read && e.toAcq.read {
				continue // RLock while RLock held always overlaps safely
			}
			reports = append(reports, e)
			continue
		}
		if comp[u] == comp[v] && compSize[comp[u]] > 1 {
			reports = append(reports, e)
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].pos < reports[j].pos })

	for _, e := range reports {
		if e.from == e.to {
			a.pass.Reportf(e.pos, "%s acquired while another %s is already held%s (self-cycle: deadlock if both are the same instance; annotate if instances are locked in a fixed order)",
				a.names[e.to], a.names[e.from], viaClause(e))
			continue
		}
		counter := a.counterEdge(e, index, comp)
		a.pass.Reportf(e.pos, "lock order cycle: %s acquired while %s is held%s, but %s is acquired while %s is held at %s (potential deadlock)",
			a.names[e.to], a.names[e.from], viaClause(e),
			a.names[counter.to], a.names[counter.from], a.shortPos(counter.pos))
	}
}

// counterEdge picks the next hop of the cycle e sits on: an in-component
// edge leaving e.to (one exists — e.to reaches e.from inside the SCC).
func (a *lockOrderAnalyzer) counterEdge(e lockEdge, index map[types.Object]int, comp []int) lockEdge {
	for _, cand := range a.edges {
		if cand.from != e.to || cand.from == cand.to {
			continue
		}
		if comp[index[cand.to]] == comp[index[cand.from]] {
			return cand
		}
	}
	return e
}

func viaClause(e lockEdge) string {
	if e.via == "" {
		return ""
	}
	return fmt.Sprintf(" (via call to %s)", e.via)
}

// shortPos renders pos relative to the module root for readable messages.
func (a *lockOrderAnalyzer) shortPos(pos token.Pos) string {
	p := a.pass.Module.Fset.Position(pos)
	file := p.Filename
	if dir := a.pass.Module.Dir; dir != "" && strings.HasPrefix(file, dir+"/") {
		file = strings.TrimPrefix(file, dir+"/")
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// sccKosaraju labels each node of adj with its strongly connected
// component (iterative two-pass Kosaraju; deterministic for a fixed node
// order).
func sccKosaraju(adj [][]int) []int {
	n := len(adj)
	radj := make([][]int, n)
	for u, vs := range adj {
		for _, v := range vs {
			radj[v] = append(radj[v], u)
		}
	}
	order := make([]int, 0, n)
	state := make([]int, n) // 0 unvisited, 1 in stack, 2 done
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		type frame struct{ u, i int }
		stack := []frame{{s, 0}}
		state[s] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(adj[f.u]) {
				v := adj[f.u][f.i]
				f.i++
				if state[v] == 0 {
					state[v] = 1
					stack = append(stack, frame{v, 0})
				}
				continue
			}
			order = append(order, f.u)
			state[f.u] = 2
			stack = stack[:len(stack)-1]
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	for i := n - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] != -1 {
			continue
		}
		stack := []int{root}
		comp[root] = c
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range radj[u] {
				if comp[v] == -1 {
					comp[v] = c
					stack = append(stack, v)
				}
			}
		}
		c++
	}
	return comp
}
