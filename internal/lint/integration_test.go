package lint

import (
	"go/ast"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// realModule is this repository, loaded and type-checked once per test
// binary: every real-module test reads the same load.
var realModule = sync.OnceValues(func() (*Module, error) { return LoadDir("../..") })

func loadRealModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := realModule()
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return m
}

// TestRealModuleClean is the in-test twin of `go run ./cmd/spiderlint
// ./...`: the repository's own tree must come out clean under the full
// suite. Any finding here either needs a code fix or a reasoned
// //lint:ignore — never a weakening of the check.
func TestRealModuleClean(t *testing.T) {
	m := loadRealModule(t)
	for _, d := range Run(m, DefaultConfig(), Checks()) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestRealModuleAnalyzersSeeFacts guards against the analyzers silently
// going blind: a package rename or broken type resolution would turn a
// check into a no-op that still passes TestRealModuleClean. Every check
// asserts at least one fact about the real module; a check with nothing
// left to assert here has nothing left to guard and goes.
func TestRealModuleAnalyzersSeeFacts(t *testing.T) {
	m := loadRealModule(t)
	cfg := DefaultConfig()
	newPass := func(name string) (*Pass, *[]Diagnostic) {
		diags := &[]Diagnostic{}
		return &Pass{Cfg: cfg, Module: m, check: &Check{Name: name}, diags: diags}, diags
	}
	// raw runs one check with no suppression applied.
	raw := func(c *Check) []Diagnostic {
		p, diags := newPass(c.Name)
		c.Run(p)
		return *diags
	}
	p, _ := newPass("")

	for _, paths := range [][]string{cfg.DeterministicPkgs, cfg.ErrcheckPkgs} {
		for _, path := range paths {
			if len(p.PackagesMatching([]string{path})) == 0 {
				t.Errorf("DefaultConfig path %q matches no package of the module", path)
			}
		}
	}

	// determinism: the suppressed order-insensitive collect is still seen.
	det := raw(determinismCheck())
	for _, file := range []string{"internal/experiments/experiments.go"} {
		if !slices.ContainsFunc(det, func(d Diagnostic) bool { return strings.HasSuffix(d.Pos.Filename, "/"+file) }) {
			t.Errorf("determinism reports nothing in %s; it is blind to its packages", file)
		}
	}

	// mutexhygiene: the Lock/RLock statements it traces.
	locks, calls := 0, 0
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, body := range fileFuncBodies(f) {
				a := &mutexAnalyzer{pass: p, pkg: pkg, funcBody: body}
				locks += len(a.lockSites())
			}
			calls += lockCallStmts(f)
		}
	}
	t.Logf("mutexhygiene: %d Lock/RLock sites of %d x.Lock()/x.RLock() statements", locks, calls)
	if locks == 0 || locks != calls {
		t.Errorf("mutexhygiene resolves %d of the module's %d x.Lock()/x.RLock() statements; lock resolution is broken", locks, calls)
	}

	// errcheck: each scoped package has at least one (suppressed) dropped
	// write error.
	errs := raw(errcheckCheck())
	for _, path := range cfg.ErrcheckPkgs {
		if !slices.ContainsFunc(errs, func(d Diagnostic) bool { return strings.HasSuffix(filepath.Dir(d.Pos.Filename), "/"+path) }) {
			t.Errorf("errcheck reports nothing in %s; it is blind to the package", path)
		}
	}
}

// lockCallStmts counts f's statements that are a call x.Lock() or
// x.RLock() by name alone, with no type information: every one of them
// in this module locks a sync mutex, so mutexhygiene must resolve each.
func lockCallStmts(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		stmt, ok := node.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := stmt.X.(*ast.CallExpr); ok && len(call.Args) == 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
				n++
			}
		}
		return true
	})
	return n
}
