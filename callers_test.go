package spidercache_test

// The callers test keeps non-test Go to code a program calls. It fails on
// a function or method that no non-test file of the tree uses and that
// satisfies no interface: such code is reached only from tests, a
// mechanism no shipped configuration turns on. The bench module is loaded
// with the rest, so the harness's calls count.

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"

	"spidercache/internal/lint"
)

// callerExempt are the test-support packages: every caller of theirs is a
// test.
var callerExempt = map[string]bool{
	"spidercache/internal/leakcheck": true,
	"spidercache/internal/faultnet":  true,
}

func TestEveryFunctionHasACaller(t *testing.T) {
	m, err := lint.LoadDir(".")
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
	used := map[types.Object]bool{}
	benchLoaded := false
	for _, pkg := range m.Packages {
		benchLoaded = benchLoaded || pkg.Path == m.Path+"/bench"
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("%s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
		for _, obj := range pkg.Info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range pkg.Info.Selections {
			used[origin(sel.Obj())] = true
		}
	}
	if !benchLoaded {
		return nil, fmt.Errorf("the bench package was not loaded, so its calls would not count")
	}
	ifaces := interfaces(m)
	var problems []string
	for _, pkg := range m.Packages {
		if callerExempt[pkg.Path] || !inRootModule(m.Dir, pkg.Dir) {
			continue
		}
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

// inRootModule reports whether dir belongs to the module rooted at root
// rather than to a module nested in it.
func inRootModule(root, dir string) bool {
	for ; len(dir) > len(root); dir = filepath.Dir(dir) {
		if exists(filepath.Join(dir, "go.mod")) {
			return false
		}
	}
	return true
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
