package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package of the module.
type Package struct {
	// Path is the full import path ("spidercache/internal/kvserver").
	Path string
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info
	// TypeErrors collects type-checker diagnostics (empty when the package
	// compiles; spiderlint reports them rather than guessing on broken code).
	TypeErrors []error
}

// RelPath returns the import path relative to the module ("internal/kvserver",
// or "." for the module root package).
func (p *Package) RelPath(m *Module) string {
	if p.Path == m.Path {
		return "."
	}
	return strings.TrimPrefix(p.Path, m.Path+"/")
}

// Module is every package of one Go module, loaded for analysis.
type Module struct {
	// Path is the module path from go.mod ("spidercache").
	Path string
	// Fset positions every file of every package (shared with the stdlib
	// source importer, so cross-package positions stay coherent).
	Fset *token.FileSet
	// Packages is sorted by import path.
	Packages []*Package
}

// The stdlib importer is shared process-wide: it type-checks standard
// library packages from $GOROOT/src (no export data, no network, no
// golang.org/x/tools), and caching them once keeps repeated loads — every
// analyzer test fixture — from re-checking sync/time/bufio each time.
var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.ImporterFrom
)

func sharedImporter() (*token.FileSet, types.ImporterFrom) {
	stdOnce.Do(func() {
		stdFset = token.NewFileSet()
		imp := importer.ForCompiler(stdFset, "source", nil)
		from, ok := imp.(types.ImporterFrom)
		if !ok {
			panic("lint: source importer does not support ImporterFrom")
		}
		stdImp = from
	})
	return stdFset, stdImp
}

// pkgSrc is the loader's pre-typecheck view of one package.
type pkgSrc struct {
	path  string
	dir   string
	files []*ast.File
}

// moduleImporter resolves module-internal imports from the load set and
// delegates everything else to the stdlib source importer. Type-checking is
// memoized and recursive; modules are acyclic so recursion terminates.
type moduleImporter struct {
	mu      sync.Mutex
	modPath string
	fset    *token.FileSet
	std     types.ImporterFrom
	srcs    map[string]*pkgSrc
	done    map[string]*Package
	loading map[string]bool
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == mi.modPath || strings.HasPrefix(path, mi.modPath+"/") {
		pkg, err := mi.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return mi.std.ImportFrom(path, dir, mode)
}

// check type-checks the module package at path (memoized).
func (mi *moduleImporter) check(path string) (*Package, error) {
	if pkg, ok := mi.done[path]; ok {
		return pkg, nil
	}
	src, ok := mi.srcs[path]
	if !ok {
		return nil, fmt.Errorf("lint: import %q is not a package of module %s", path, mi.modPath)
	}
	if mi.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	mi.loading[path] = true
	defer delete(mi.loading, path)

	pkg := &Package{
		Path:  src.path,
		Files: src.files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: mi,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(src.path, mi.fset, src.files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	mi.done[path] = pkg
	return pkg, nil
}

// buildModule type-checks every pkgSrc and assembles the Module.
func buildModule(modPath string, fset *token.FileSet, std types.ImporterFrom, srcs []*pkgSrc) (*Module, error) {
	mi := &moduleImporter{
		modPath: modPath,
		fset:    fset,
		std:     std,
		srcs:    make(map[string]*pkgSrc, len(srcs)),
		done:    make(map[string]*Package, len(srcs)),
		loading: map[string]bool{},
	}
	for _, s := range srcs {
		if prev, dup := mi.srcs[s.path]; dup {
			return nil, fmt.Errorf("lint: duplicate package path %q (%s vs %s)", s.path, prev.dir, s.dir)
		}
		mi.srcs[s.path] = s
	}
	m := &Module{Path: modPath, Fset: fset}
	mi.mu.Lock()
	defer mi.mu.Unlock()
	for _, s := range srcs {
		pkg, err := mi.check(s.path)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", s.path, err)
		}
		m.Packages = append(m.Packages, pkg)
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	return m, nil
}

// skipDirs are directory names never descended into during discovery.
var skipDirs = map[string]bool{"testdata": true, "vendor": true}

// LoadDir loads every package of the module rooted at dir: non-test .go
// files are parsed with comments and type-checked against the standard
// library source importer, so the loader works offline with no dependency
// beyond the Go toolchain's own source tree.
func LoadDir(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset, std := sharedImporter()

	var srcs []*pkgSrc
	walk := func(rel string) error {
		pdir := filepath.Join(abs, filepath.FromSlash(rel))
		ents, err := os.ReadDir(pdir)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(pdir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		srcs = append(srcs, &pkgSrc{path: path, dir: pdir, files: files})
		return nil
	}
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := d.Name()
		if p != abs && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || skipDirs[base]) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(abs, p)
		if err != nil {
			return err
		}
		return walk(filepath.ToSlash(rel))
	})
	if err != nil {
		return nil, err
	}
	return buildModule(modPath, fset, std, srcs)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
