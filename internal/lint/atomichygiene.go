package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicHygieneCheck enforces all-or-nothing atomicity per struct field: a
// field that is accessed through sync/atomic functions anywhere in the
// module must never be read or written plainly. One plain store next to a
// CAS loop silently forfeits every guarantee the loop bought — the bug
// class around packed counter words and bitsets updated with CAS.
//
// The check is module-wide and two-pass. Pass one walks every function,
// resolves `&x.f`, `&x.f[i]` and `&alias[i]` arguments of sync/atomic
// calls to their struct field (local aliases of the field are traced
// through assignments), and records the indexing depth of the atomic
// access. Pass two flags any plain access to a recorded field at that
// depth or deeper. The depth rule is what separates element atomicity
// from header bookkeeping: for `rows [4][]uint64` accessed as
// `atomic.LoadUint64(&a.rows[i][w])`, slice-header operations
// (`a.rows[i] = make(...)`, `range a.rows`, `row := a.rows[i]`) stay
// legal while a plain `a.rows[i][w]` — or `row[w]` through the alias —
// is a finding. Composite-literal initialization is naturally exempt:
// a field key in a literal is not a field access.
func atomicHygieneCheck() *Check {
	c := &Check{
		Name: "atomichygiene",
		Doc:  "Fields accessed via sync/atomic anywhere must never be read or written plainly",
	}
	c.Run = func(p *Pass) {
		a := &atomicAnalyzer{
			pass:       p,
			tracked:    map[*types.Var]*atomicField{},
			aliases:    map[types.Object]aliasInfo{},
			atomicArgs: map[ast.Expr]bool{},
		}
		a.collect()
		a.flag()
	}
	return c
}

// atomicField records how one struct field is atomically accessed.
type atomicField struct {
	owner string // display name of the owning struct
	depth int    // minimal indexing depth at the atomic sites
}

// aliasInfo records that a local variable holds x.f indexed base levels
// deep (row := a.rows[i] has base 1).
type aliasInfo struct {
	field *types.Var
	base  int
}

type atomicAnalyzer struct {
	pass       *Pass
	tracked    map[*types.Var]*atomicField
	aliases    map[types.Object]aliasInfo
	atomicArgs map[ast.Expr]bool // the &expr arguments of atomic calls
}

// collect resolves every sync/atomic call argument in the module to its
// struct field. Aliases are collected first so `&row[w]` attributes to
// the aliased field; object identity scopes the alias map for free.
func (a *atomicAnalyzer) collect() {
	for _, pkg := range a.pass.Module.Packages {
		for _, f := range pkg.Files {
			a.collectAliases(pkg, f)
		}
	}
	for _, pkg := range a.pass.Module.Packages {
		for _, f := range pkg.Files {
			a.collectAtomicSites(pkg, f)
		}
	}
}

func (a *atomicAnalyzer) collectAliases(pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			field, depth, _, ok := a.resolveAccess(pkg, as.Rhs[i])
			if !ok {
				continue
			}
			if obj := pkg.Info.ObjectOf(id); obj != nil {
				a.aliases[obj] = aliasInfo{field: field, base: depth}
			}
		}
		return true
	})
}

func (a *atomicAnalyzer) collectAtomicSites(pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || !isAtomicFuncCall(pkg, call) {
			return true
		}
		for _, arg := range call.Args {
			ue, isAddr := arg.(*ast.UnaryExpr)
			if !isAddr || ue.Op != token.AND {
				continue
			}
			a.atomicArgs[arg] = true
			field, depth, owner, ok := a.resolveAccess(pkg, ue.X)
			if !ok {
				continue
			}
			if t, seen := a.tracked[field]; !seen {
				a.tracked[field] = &atomicField{owner: owner, depth: depth}
			} else if depth < t.depth {
				t.depth = depth
			}
		}
		return true
	})
}

// isAtomicFuncCall reports whether call invokes a package-level sync/atomic
// function (Load*, Store*, Add*, Swap*, CompareAndSwap*).
func isAtomicFuncCall(pkg *Package, call *ast.CallExpr) bool {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return false
	}
	fn, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func)
	return isFunc && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		fn.Type().(*types.Signature).Recv() == nil
}

// resolveAccess strips index layers off e and resolves the base to a
// struct field, either directly (`x.f[i][j]` → f, depth 2) or through a
// collected alias (`row[w]` → rows, alias base + 1). owner is the
// display name of the struct at the selector, "" for alias roots.
func (a *atomicAnalyzer) resolveAccess(pkg *Package, e ast.Expr) (field *types.Var, depth int, owner string, ok bool) {
	for {
		ie, isIndex := e.(*ast.IndexExpr)
		if !isIndex {
			break
		}
		depth++
		e = ie.X
	}
	switch base := e.(type) {
	case *ast.SelectorExpr:
		v, isVar := pkg.Info.Uses[base.Sel].(*types.Var)
		if !isVar || !v.IsField() {
			return nil, 0, "", false
		}
		return v, depth, recvDisplayName(pkg, base.X), true
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(base)
		if obj == nil {
			return nil, 0, "", false
		}
		al, isAlias := a.aliases[obj]
		if !isAlias {
			return nil, 0, "", false
		}
		return al.field, al.base + depth, "", true
	}
	return nil, 0, "", false
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

// flag walks the module again and reports every plain access at or below
// a tracked field's atomic depth.
func (a *atomicAnalyzer) flag() {
	if len(a.tracked) == 0 {
		return
	}
	for _, pkg := range a.pass.Module.Packages {
		for _, f := range pkg.Files {
			writes := collectWriteRoots(f)
			ast.Inspect(f, func(n ast.Node) bool {
				e, isExpr := n.(ast.Expr)
				if !isExpr {
					return true
				}
				if a.atomicArgs[e] {
					return false // the atomic access itself
				}
				switch e.(type) {
				case *ast.IndexExpr, *ast.SelectorExpr:
				default:
					return true
				}
				field, depth, _, ok := a.resolveAccess(pkg, e)
				if !ok {
					return true
				}
				t, isTracked := a.tracked[field]
				if !isTracked || depth < t.depth {
					return true
				}
				verb := "read of"
				if writes[e] {
					verb = "write to"
				}
				what := field.Name()
				if t.depth > 0 {
					what = "an element of " + what
				}
				a.pass.Reportf(e.Pos(), "plain %s %s on %s.%s: the field is accessed with sync/atomic elsewhere",
					verb, what, t.owner, field.Name())
				return true
			})
		}
	}
}

// collectWriteRoots returns the expressions written by assignments and
// inc/dec statements in f.
func collectWriteRoots(f *ast.File) map[ast.Expr]bool {
	writes := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				writes[lhs] = true
			}
		case *ast.IncDecStmt:
			writes[st.X] = true
		}
		return true
	})
	return writes
}
