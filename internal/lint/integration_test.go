package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"
)

func loadRealModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadDir(root)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", root, err)
	}
	return m
}

// TestRealModuleClean runs the full suite over this repository itself:
// the tier-1 gate in test form. Any finding here either needs a code fix
// or a reasoned //lint:ignore — never a weakening of the check.
func TestRealModuleClean(t *testing.T) {
	m := loadRealModule(t)
	for _, d := range Run(m, DefaultConfig(), Checks()) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestRealModuleAnalyzersSeeFacts guards against the analyzers silently
// going blind: a refactor that renames Pool.Acquire or breaks type
// resolution would turn them into no-ops that still pass
// TestRealModuleClean.
//
// atomichygiene has no assertion here: since the TinyLFU sketch went, no
// non-test code in the module calls sync/atomic functions (atomic types
// such as atomic.Int64 are not its subject), so there is no real field for
// it to track. Its fixtures (atomichygiene_test.go) still cover it.
func TestRealModuleAnalyzersSeeFacts(t *testing.T) {
	m := loadRealModule(t)
	p := &Pass{Cfg: DefaultConfig(), Module: m}

	// pairhygiene: the pool client acquire sites must resolve.
	acquires := map[string]int{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if e, isExpr := n.(ast.Expr); isExpr {
					if _, rule, ok := acquireCall(p, pkg, e); ok {
						acquires[rule.Type+"."+rule.Acquire]++
					}
				}
				return true
			})
		}
	}
	t.Logf("pairhygiene acquire sites: %v", acquires)
	if acquires["Pool.Acquire"] == 0 {
		t.Errorf("no Pool.Acquire sites resolved; pairhygiene is blind to the client pool")
	}

	// lockorder: the module's mutexes must resolve into graph nodes.
	la := &lockOrderAnalyzer{
		pass:      p,
		summaries: map[*types.Func]map[types.Object]lockAcq{},
		callees:   map[*types.Func][]*types.Func{},
		names:     map[types.Object]string{},
	}
	la.buildSummaries()
	la.buildEdges()
	var lockNames []string
	for _, name := range la.names {
		lockNames = append(lockNames, name)
	}
	t.Logf("lockorder: %d distinct locks, %d acquisition edges", len(la.names), len(la.edges))
	for _, e := range la.edges {
		t.Logf("  edge: %s -> %s (via %q) at %s", la.names[e.from], la.names[e.to], e.via, la.shortPos(e.pos))
	}
	if len(la.names) < 5 {
		t.Errorf("lockorder resolved only %d locks (%v); lock resolution is broken", len(la.names), lockNames)
	}
}
