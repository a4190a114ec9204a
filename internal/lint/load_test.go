package lint

import (
	"go/parser"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// LoadSources loads a synthetic module from in-memory sources: pkgs maps a
// package path relative to modPath ("a", "internal/kvserver") to its files
// (file name -> source text). Analyzer tests build fixtures with it.
func LoadSources(modPath string, pkgs map[string]map[string]string) (*Module, error) {
	fset, std := sharedImporter()
	var srcs []*pkgSrc
	for rel, files := range pkgs {
		path := modPath
		if rel != "" && rel != "." {
			path = modPath + "/" + rel
		}
		src := &pkgSrc{path: path}
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			f, err := parser.ParseFile(fset, n, files[n], parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			src.files = append(src.files, f)
		}
		srcs = append(srcs, src)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].path < srcs[j].path })
	return buildModule(modPath, fset, std, srcs)
}

// lookup returns m's package with the given import path, or nil.
func lookup(m *Module, path string) *Package {
	for _, pkg := range m.Packages {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// TestLoadRealModule: the repository's own tree loads under its module
// path, holds the packages the checks are scoped to, and type-checks
// without error.
func TestLoadRealModule(t *testing.T) {
	m := loadRealModule(t)
	if m.Path != "spidercache" {
		t.Fatalf("module path = %q, want spidercache", m.Path)
	}
	for _, want := range []string{
		"spidercache/internal/kvserver",
		"spidercache/internal/tensor",
		"spidercache/internal/telemetry",
		"spidercache/internal/lint",
	} {
		if lookup(m, want) == nil {
			t.Errorf("module is missing package %s", want)
		}
	}
	for _, pkg := range m.Packages {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
}

// TestLoadDirRootWithoutCode: a module whose root package holds only tests,
// or only a doc file, loads with its other packages.
func TestLoadDirRootWithoutCode(t *testing.T) {
	for name, root := range map[string]map[string]string{
		"tests only": {"root_test.go": "package fix_test\n"},
		"doc only":   {"doc.go": "// Package fix is a fixture.\npackage fix\n"},
	} {
		dir := t.TempDir()
		files := map[string]string{"go.mod": "module fix\n", "a/a.go": "package a\n\nfunc A() {}\n"}
		for n, src := range root {
			files[n] = src
		}
		for n, src := range files {
			p := filepath.Join(dir, filepath.FromSlash(n))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: LoadDir: %v", name, err)
		}
		if lookup(m, "fix/a") == nil {
			t.Errorf("%s: package fix/a not loaded", name)
		}
		rootPkg := lookup(m, "fix")
		if wantRoot := name == "doc only"; (rootPkg != nil) != wantRoot {
			t.Errorf("%s: root package loaded = %v, want %v", name, rootPkg != nil, wantRoot)
		}
		for _, pkg := range m.Packages {
			for _, e := range pkg.TypeErrors {
				t.Errorf("%s: %s: type error: %v", name, pkg.Path, e)
			}
		}
	}
}

func TestLoadSourcesLookupAndRelPath(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"":           {"root.go": "package fix\n"},
		"internal/a": {"a.go": "package a\n"},
	})
	root := lookup(m, "fix")
	if root == nil || root.RelPath(m) != "." {
		t.Fatalf("root package: got %+v", root)
	}
	a := lookup(m, "fix/internal/a")
	if a == nil || a.RelPath(m) != "internal/a" {
		t.Fatalf("internal/a package: got %+v", a)
	}
}

func TestLoadSourcesCrossPackageTypes(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"a": {"a.go": `package a

type Widget struct{ N int }

func New(n int) *Widget { return &Widget{N: n} }
`},
		"b": {"b.go": `package b

import "fix/a"

func Double(w *a.Widget) int { return 2 * w.N }

var _ = a.New
`},
	})
	for _, pkg := range m.Packages {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
}
