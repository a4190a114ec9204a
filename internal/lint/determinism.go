package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismCheck forbids the three classic sources of silent
// nondeterminism in the packages whose outputs must be bitwise-reproducible
// (Config.DeterministicPkgs): wall-clock reads (time.Now / time.Since),
// the process-global math/rand generator, and ranging over a map. The
// SHADE and iCache reproductions both report that nondeterminism in
// importance scoring corrupts cache-policy comparisons without failing any
// test — hence a build-time gate rather than a review convention.
//
// Telemetry-only timing and collect-then-sort map scans are legitimate;
// annotate them with //lint:ignore determinism <reason>.
func determinismCheck() *Check {
	c := &Check{Name: "determinism"}
	c.Run = func(p *Pass) {
		for _, pkg := range p.PackagesMatching(p.Cfg.DeterministicPkgs) {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						obj := pkg.Info.Uses[n.Sel]
						if obj == nil || obj.Pkg() == nil {
							return true
						}
						switch obj.Pkg().Path() {
						case "time":
							if obj.Name() == "Now" || obj.Name() == "Since" {
								p.Reportf(n.Pos(), "time.%s in a deterministic package; take times as inputs (or annotate telemetry-only timing)", obj.Name())
							}
						case "math/rand", "math/rand/v2":
							// Package-level functions draw from the global
							// generator; methods on a seeded *rand.Rand are
							// fine (their selector X is a variable, not the
							// package), and the New* constructors are how a
							// seeded source is built in the first place.
							if _, isFunc := obj.(*types.Func); isFunc && isPackageSelector(pkg, n.X) && !strings.HasPrefix(obj.Name(), "New") {
								p.Reportf(n.Pos(), "global math/rand.%s in a deterministic package; use a seeded source (internal/xrand or rand.New)", obj.Name())
							}
						}
					case *ast.RangeStmt:
						tv, ok := pkg.Info.Types[n.X]
						if !ok || tv.Type == nil {
							return true
						}
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							p.Reportf(n.Pos(), "map iteration order is random; sort the keys first (or annotate an order-insensitive scan)")
						}
					}
					return true
				})
			}
		}
	}
	return c
}

// isPackageSelector reports whether e is a bare package qualifier (the X of
// rand.Intn as opposed to the X of rng.Intn).
func isPackageSelector(pkg *Package, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	return isPkg
}
