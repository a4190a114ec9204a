package spidercache_test

// The callers test keeps non-test Go to code a program uses. It fails on
// a function or method that no non-test file of the tree uses and that
// satisfies no interface, on a struct field that no non-test file reads
// or none writes, and on a package-level const, var or type that no
// non-test file uses: such code is reached only from tests, a mechanism
// no shipped configuration turns on. The bench module is loaded with the
// rest, so the harness's uses count.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"

	"spidercache/internal/lint"
)

// callerExempt are the test-support packages: every caller of theirs is a
// test.
var callerExempt = map[string]bool{
	"spidercache/internal/leakcheck": true,
	"spidercache/internal/faultnet":  true,
}

// loadTree loads the tree once for every test here.
var loadTree = sync.OnceValues(func() (*lint.Module, error) { return lint.LoadDir(".") })

// checkedPackages returns the packages whose declarations must be used:
// the root module's, less the test-support ones. It fails when a package
// does not type-check or the bench module, whose uses count, is missing.
func checkedPackages(m *lint.Module) ([]*lint.Package, error) {
	benchLoaded := false
	var out []*lint.Package
	for _, pkg := range m.Packages {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
		if inBench(m, pkg) {
			benchLoaded = true
		} else if !callerExempt[pkg.Path] {
			out = append(out, pkg)
		}
	}
	if !benchLoaded {
		return nil, fmt.Errorf("the bench package was not loaded, so its uses would not count")
	}
	return out, nil
}

// inBench reports whether pkg belongs to the bench module nested in m.
func inBench(m *lint.Module, pkg *lint.Package) bool {
	bench := m.Path + "/bench"
	return pkg.Path == bench || strings.HasPrefix(pkg.Path, bench+"/")
}

func TestEveryFunctionHasACaller(t *testing.T) {
	m, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := uncalled(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// uncalled returns one "file:line: name ..." line per function or method
// of the root module that no non-test file uses and that satisfies no
// interface, sorted. Only main and init need no caller. The bench module
// is loaded for its calls only.
func uncalled(m *lint.Module) ([]string, error) {
	pkgs, err := checkedPackages(m)
	if err != nil {
		return nil, err
	}
	used := uses(m)
	ifaces := interfaces(m)
	var problems []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn] || needsNoCaller(fn) || satisfiesAny(fn, ifaces) {
					continue
				}
				pos := m.Fset.Position(fd.Pos())
				problems = append(problems, fmt.Sprintf("%s:%d: %s has no non-test caller and satisfies no interface",
					pos.Filename, pos.Line, qualified(m, pkg, fn)))
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// uses returns every object a non-test file of the tree names.
func uses(m *lint.Module) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, pkg := range m.Packages {
		for _, obj := range pkg.Info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range pkg.Info.Selections {
			used[origin(sel.Obj())] = true
		}
	}
	return used
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func needsNoCaller(fn *types.Func) bool {
	return fn.Signature().Recv() == nil && (fn.Name() == "main" || fn.Name() == "init")
}

// interfaces returns every non-empty interface the loaded code declares
// or uses: the universe's error, the package-level interfaces of the
// module's packages and of every package they import (fmt.Stringer,
// heap.Interface, ...), and the type of each expression of the module
// (an interface literal, a local interface type).
func interfaces(m *lint.Module) []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[t] {
			return
		}
		seen[t] = true
		out = append(out, it)
	}
	add(types.Universe.Lookup("error").Type())
	scopes := map[*types.Package]bool{}
	for _, pkg := range m.Packages {
		scopes[pkg.Types] = true
		for _, imp := range pkg.Types.Imports() {
			scopes[imp] = true
		}
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	for p := range scopes {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

// satisfiesAny reports whether fn is a method by which its receiver type,
// or a pointer to it, implements an interface that has a method of fn's
// name.
func satisfiesAny(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := receiverNamed(recv.Type())
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// qualified names fn as "internal/cluster.Client.Get", or as "Get" in the
// root package.
func qualified(m *lint.Module, pkg *lint.Package, fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		name = receiverNamed(recv.Type()).Obj().Name() + "." + name
	}
	if rel := pkg.RelPath(m); rel != "." {
		name = rel + "." + name
	}
	return name
}

// unusedExceptions are the findings of unused that are excused, each with
// its reason: the ROADMAP item that decides it, or the tests that are a
// field's only readers. Each must still be a finding, so an entry cannot
// outlive what it excuses.
var unusedExceptions = map[string]string{
	"internal/cache.Item.Size":                 "ROADMAP item 21: bound the caches by bytes or delete the size plumbing, whose OnMiss change touches bench/",
	"internal/trainer.EpochStats.SnapshotHits": "ROADMAP item 7: the benchmark change that stops bench/ reading it",
	"internal/trainer.EpochStats.Misses":       "read only by the trainer's accounting-identity tests, which check it against the hit counts",
	"internal/trainer.EpochStats.CommTime":     "read only by the trainer's accounting-identity tests, which check it against the epoch's time split",
	"internal/dataset.Dataset.Kinds":           "read only by the generator tests, which check the planted populations",
}

func TestEveryFieldAndNameIsUsed(t *testing.T) {
	m, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unused(m)
	if err != nil {
		t.Fatal(err)
	}
	excused := map[string]bool{}
	for _, p := range problems {
		if name := p.name; unusedExceptions[name] != "" {
			excused[name] = true
			continue
		}
		t.Error(p)
	}
	for name, why := range unusedExceptions {
		if !excused[name] {
			t.Errorf("%s is excused (%s) but is no longer a finding: drop the exception", name, why)
		}
	}
}

// finding is one declaration the tree does not use as it must.
type finding struct {
	pos  token.Position
	name string // qualified, as "internal/cache.Item.Size"
	why  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s %s", f.pos.Filename, f.pos.Line, f.name, f.why)
}

// unused returns, sorted, every struct field of the root
// module that no non-test file reads or none writes, and every
// package-level const, var or type that no non-test file uses. Blank
// names are exempt.
func unused(m *lint.Module) ([]finding, error) {
	pkgs, err := checkedPackages(m)
	if err != nil {
		return nil, err
	}
	used := uses(m)
	read, written := fieldAccesses(m)
	var out []finding
	at := func(pkg *lint.Package, pos token.Pos, name, why string) {
		if rel := pkg.RelPath(m); rel != "." {
			name = rel + "." + name
		}
		out = append(out, finding{m.Fset.Position(pos), name, why})
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Const, *types.Var, *types.TypeName:
				if !used[obj] {
					at(pkg, obj.Pos(), name, "has no non-test use")
				}
			}
		}
		for _, f := range pkg.Files {
			owners := map[*ast.StructType]string{} // a named struct's type name
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owners[st] = n.Name.Name
					}
				case *ast.StructType:
					owner := owners[n]
					if owner == "" {
						owner = "struct"
					}
					for _, field := range n.Fields.List {
						for _, id := range fieldIdents(field) {
							obj := pkg.Info.Defs[id].(*types.Var)
							if obj.Name() == "_" {
								continue
							}
							if !read[obj] {
								at(pkg, id.Pos(), owner+"."+obj.Name(), "is read by no non-test file")
							}
							if !written[obj] {
								at(pkg, id.Pos(), owner+"."+obj.Name(), "is written by no non-test file")
							}
						}
					}
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// fieldIdents returns the identifiers that define field's objects: its
// names, or for an embedded field the name of its type.
func fieldIdents(field *ast.Field) []*ast.Ident {
	if len(field.Names) > 0 {
		return field.Names
	}
	t := field.Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.SelectorExpr:
			return []*ast.Ident{e.Sel}
		case *ast.Ident:
			return []*ast.Ident{e}
		default:
			panic(fmt.Sprintf("embedded field of type %T", t))
		}
	}
}

// fieldAccesses returns the struct fields the non-test files of the tree
// read and those they write. An assignment or op-assign to x.f, an inc/dec
// of it, an assignment into it (x.f[k] = v) and a key or position in a
// composite literal only write the field, and a bare x.f only reads it:
// a field that only accumulates or fills is never consulted. Everything
// else counts as both: an assignment through it (x.f.g = v, *x.f = v),
// &x.f, a method called through the field (a mutex, an atomic) and an
// embedded field a selection passes through.
func fieldAccesses(m *lint.Module) (read, written map[types.Object]bool) {
	read, written = map[types.Object]bool{}, map[types.Object]bool{}
	for _, pkg := range m.Packages {
		info := pkg.Info
		for _, f := range pkg.Files {
			// How a selector of a field is used, when not as a bare read.
			const writeOnly, readWrite = 1, 2
			use := map[*ast.SelectorExpr]int{}
			var mark func(e ast.Expr, how int)
			mark = func(e ast.Expr, how int) {
				switch e := e.(type) {
				case *ast.ParenExpr:
					mark(e.X, how)
				case *ast.StarExpr:
					mark(e.X, readWrite)
				case *ast.IndexExpr:
					mark(e.X, how)
				case *ast.SelectorExpr:
					if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
						use[e] = how
						mark(e.X, readWrite)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs, writeOnly)
					}
				case *ast.IncDecStmt:
					mark(n.X, writeOnly)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X, readWrite)
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
						} else {
							written[origin(st.Field(i))] = true
						}
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil {
						break
					}
					// Embedded fields the selection passes through.
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						fld := origin(t.Underlying().(*types.Struct).Field(i))
						read[fld], written[fld] = true, true
						t = fld.Type()
					}
					if sel.Kind() == types.MethodVal {
						mark(n.X, readWrite)
					}
					if sel.Kind() != types.FieldVal {
						break
					}
					fld := origin(sel.Obj())
					if use[n] != writeOnly {
						read[fld] = true
					}
					if use[n] != 0 {
						written[fld] = true
					}
				}
				return true
			})
		}
	}
	return read, written
}
