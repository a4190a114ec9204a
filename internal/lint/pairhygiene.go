package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pairHygieneCheck enforces acquire/release protocols declared in
// Config.PairRules: the resource returned by an acquire method
// (kvserver.Pool.Acquire, ...) must reach one of its release methods on
// every path out of the acquiring function — lostcancel-style, but for
// project resources. A leaked pool client starves every other caller.
//
// The analysis is intraprocedural over the CFG (cfg.go): the acquired
// local is traced as a three-valued "live" fact; releasing it (as the
// receiver of, or an argument to, a declared release method, inline or
// deferred) clears it, and so does any escape — returning the resource,
// storing it in a field, or passing it to another function transfers
// ownership, and the recipient is trusted to release it. When the acquire
// also yields an error, branches entered under `err != nil` are pruned:
// a failed acquire has nothing to release.
func pairHygieneCheck() *Check {
	c := &Check{
		Name: "pairhygiene",
		Doc:  "Acquired resources (such as pool clients) must be released or handed off on every path",
	}
	c.Run = func(p *Pass) {
		if len(p.Cfg.PairRules) == 0 {
			return
		}
		for _, pkg := range p.Module.Packages {
			for _, f := range pkg.Files {
				for _, fb := range fileFuncBodies(f) {
					analyzePairs(p, pkg, fb.body)
				}
			}
		}
	}
	return c
}

// PairRule declares one acquire/release protocol for pairhygiene. The
// receiver type (named struct or interface) is matched by name within any
// package whose import path matches the Pkg suffix, so the rule table is
// independent of the module path.
type PairRule struct {
	// Pkg is an import-path suffix ("internal/kvserver") selecting the
	// package that defines the receiver type.
	Pkg string
	// Type is the receiver type's name; interface types match too, so a
	// rule can cover an interface method as well as its implementations.
	Type string
	// Acquire is the method whose first result is the tracked resource.
	Acquire string
	// Releases are the method names that dispose of the resource, called
	// either on the resource itself (Slot.Unpin) or with the resource as
	// an argument (Pool.Release(c), Pool.Discard(c)).
	Releases []string
}

// pairSite is one tracked acquisition inside a function body.
type pairSite struct {
	rule PairRule
	stmt ast.Stmt // the acquiring statement (a CFG node)
	call *ast.CallExpr
	res  types.Object // the local bound to the resource
	err  types.Object // the error result, when the acquire yields one
}

func analyzePairs(p *Pass, pkg *Package, body *ast.BlockStmt) {
	g := buildCFG(body)

	var sites []pairSite
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			stmt, ok := n.(ast.Stmt)
			if !ok {
				continue
			}
			collectPairSite(p, pkg, stmt, &sites)
		}
	}

	for _, s := range sites {
		tracePair(p, pkg, g, s)
	}
}

// collectPairSite classifies stmt against the rule table. A matching call
// whose result is discarded is reported immediately — no path can release
// it. A call whose result binds a plain local becomes a traced site; any
// other shape (result returned, passed along, stored in a field) is an
// immediate ownership transfer and needs no tracing.
func collectPairSite(p *Pass, pkg *Package, stmt ast.Stmt, sites *[]pairSite) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, rule, ok := acquireCall(p, pkg, st.X); ok {
			p.Reportf(call.Pos(), "result of %s.%s() is discarded: the resource can never be released (expected %s)",
				rule.Type, rule.Acquire, joinReleases(rule))
		}
	case *ast.AssignStmt:
		if len(st.Rhs) != 1 {
			return
		}
		call, rule, ok := acquireCall(p, pkg, st.Rhs[0])
		if !ok {
			return
		}
		id, isIdent := st.Lhs[0].(*ast.Ident)
		if !isIdent {
			return // stored into a field/index: ownership transferred
		}
		if id.Name == "_" {
			p.Reportf(call.Pos(), "result of %s.%s() is discarded: the resource can never be released (expected %s)",
				rule.Type, rule.Acquire, joinReleases(rule))
			return
		}
		res := pkg.Info.ObjectOf(id)
		if res == nil {
			return
		}
		site := pairSite{rule: rule, stmt: stmt, call: call, res: res}
		if len(st.Lhs) == 2 {
			if eid, isIdent := st.Lhs[1].(*ast.Ident); isIdent && eid.Name != "_" {
				if obj := pkg.Info.ObjectOf(eid); obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
					site.err = obj
				}
			}
		}
		*sites = append(*sites, site)
	}
}

// acquireCall reports whether e is a call to a rule's acquire method.
func acquireCall(p *Pass, pkg *Package, e ast.Expr) (*ast.CallExpr, PairRule, bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, PairRule{}, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, PairRule{}, false
	}
	s, hasSel := pkg.Info.Selections[sel]
	if !hasSel {
		return nil, PairRule{}, false
	}
	recv := s.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return nil, PairRule{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil, PairRule{}, false
	}
	for _, r := range p.Cfg.PairRules {
		if sel.Sel.Name == r.Acquire && obj.Name() == r.Type && pathMatches(obj.Pkg().Path(), []string{r.Pkg}) {
			return call, r, true
		}
	}
	return nil, PairRule{}, false
}

// tracePair solves the live-resource dataflow for one site and reports
// the leaking paths on a replay pass.
func tracePair(p *Pass, pkg *Package, g *funcCFG, site pairSite) {
	transfer := func(blk *cfgBlock, in triState) triState {
		return pairTransfer(pkg, blk, site, in, nil)
	}
	in := solveForward(g, triFalse, transfer, mergeTri,
		func(a, b triState) bool { return a == b })

	for _, blk := range g.blocks {
		fact, reached := in[blk]
		if !reached {
			continue
		}
		pairTransfer(pkg, blk, site, fact, func(ret *ast.ReturnStmt, f triState) {
			if f != triFalse {
				p.Reportf(ret.Pos(), "return may be reached with %s still held (acquired by %s.%s; expected %s)",
					site.res.Name(), site.rule.Type, site.rule.Acquire, joinReleases(site.rule))
			}
		})
	}

	// Paths that fall off the end of the function reach the exit block
	// without a return statement; returns consume the fact, so anything
	// live here leaked without one.
	if f, reached := in[g.exit]; reached && f != triFalse {
		p.Reportf(site.call.Pos(), "%s acquired here is not released on every path (expected %s)",
			site.res.Name(), joinReleases(site.rule))
	}
}

// pairTransfer runs the live-fact transfer over one block. onReturn, when
// non-nil, sees each return statement with the fact in force before it.
func pairTransfer(pkg *Package, blk *cfgBlock, site pairSite, in triState, onReturn func(*ast.ReturnStmt, triState)) triState {
	f := in
	// A branch entered under `err != nil` (or the negation of `err ==
	// nil`) means the acquire failed: there is no resource to release.
	if blk.assumeOK && site.err != nil && errGuardKills(pkg, blk, site.err) {
		f = triFalse
	}
	for _, n := range blk.nodes {
		if n == site.stmt {
			f = triTrue
			continue
		}
		if ret, isRet := n.(*ast.ReturnStmt); isRet {
			if usesObject(pkg, ret, site.res) {
				// The resource itself is returned: the caller owns it now.
				f = triFalse
				continue
			}
			if onReturn != nil {
				onReturn(ret, f)
			}
			// Consume the fact: a leak at this return is reported at the
			// return, not again at the exit block.
			f = triFalse
			continue
		}
		if nodeReleases(pkg, n, site) {
			f = triFalse
			continue
		}
		if resourceEscapes(pkg, n, site.res) {
			f = triFalse
			continue
		}
	}
	return f
}

// errGuardKills reports whether blk's entry assumption proves site's
// acquire failed.
func errGuardKills(pkg *Package, blk *cfgBlock, errObj types.Object) bool {
	be, isBin := blk.assumeCond.(*ast.BinaryExpr)
	if !isBin {
		return false
	}
	var errSide, nilSide ast.Expr
	if isNilIdent(pkg, be.Y) {
		errSide, nilSide = be.X, be.Y
	} else if isNilIdent(pkg, be.X) {
		errSide, nilSide = be.Y, be.X
	}
	if nilSide == nil {
		return false
	}
	id, isIdent := errSide.(*ast.Ident)
	if !isIdent || pkg.Info.ObjectOf(id) != errObj {
		return false
	}
	switch be.Op {
	case token.NEQ:
		return blk.assumeVal // err != nil taken
	case token.EQL:
		return !blk.assumeVal // err == nil not taken
	}
	return false
}

func isNilIdent(pkg *Package, e ast.Expr) bool {
	id, isIdent := e.(*ast.Ident)
	if !isIdent {
		return false
	}
	_, isNil := pkg.Info.ObjectOf(id).(*types.Nil)
	return isNil
}

// nodeReleases reports whether n calls one of site's release methods with
// the resource as the receiver or as an argument — inline, deferred, or
// inside a deferred closure.
func nodeReleases(pkg *Package, n ast.Node, site pairSite) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		name := ""
		var recvExpr ast.Expr
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
			recvExpr = fn.X
		case *ast.Ident:
			name = fn.Name
		default:
			return true
		}
		if !isReleaseName(site.rule, name) {
			return true
		}
		if id, isIdent := recvExpr.(*ast.Ident); isIdent && pkg.Info.ObjectOf(id) == site.res {
			found = true
			return false
		}
		for _, arg := range call.Args {
			if id, isIdent := arg.(*ast.Ident); isIdent && pkg.Info.ObjectOf(id) == site.res {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isReleaseName(rule PairRule, name string) bool {
	for _, r := range rule.Releases {
		if name == r {
			return true
		}
	}
	return false
}

// resourceEscapes reports whether n uses the resource in an
// ownership-transferring position: anything but a selector receiver
// (method call or field read on the resource) or a comparison. Passing
// the resource to a function, storing it, capturing it in a closure, or
// sending it on a channel all hand responsibility to someone else.
func resourceEscapes(pkg *Package, n ast.Node, res types.Object) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if escaped {
			return false
		}
		id, isIdent := n.(*ast.Ident)
		if !isIdent || pkg.Info.ObjectOf(id) != res {
			return true
		}
		if len(stack) >= 2 {
			switch parent := stack[len(stack)-2].(type) {
			case *ast.SelectorExpr:
				if parent.X == id {
					return true // method call or field access on the resource
				}
			case *ast.BinaryExpr:
				return true // comparison (pin == nil etc.)
			}
		}
		escaped = true
		return false
	})
	return escaped
}

// usesObject reports whether any identifier under n resolves to obj.
func usesObject(pkg *Package, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, isIdent := n.(*ast.Ident); isIdent && pkg.Info.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}

func joinReleases(rule PairRule) string {
	return strings.Join(rule.Releases, " or ")
}
