// Command spiderlint runs the repository's project-specific static
// analysis suite (internal/lint) over the module: determinism, mutex
// hygiene, lock order and unchecked-write checks, all built on the standard library's go/parser + go/types with
// the source importer — no external tooling, works offline.
//
// Usage:
//
//	go run ./cmd/spiderlint ./...                 # whole module (the tier-1 gate)
//	go run ./cmd/spiderlint ./internal/kvserver   # one package
//	go run ./cmd/spiderlint -checks determinism,mutexhygiene ./...
//	go run ./cmd/spiderlint -list
//
// The module is the one whose go.mod encloses the working directory.
// Findings print as file:line:col: [check] message. Exit status: 0 clean,
// 1 findings, 2 load or usage failure. Suppress an intentional finding in
// place with `//lint:ignore <check> <reason>` on, or directly above, the
// flagged line.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spidercache/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("spiderlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checksFlag = fs.String("checks", "", "comma-separated checks to run (default: all)")
		listFlag   = fs.Bool("list", false, "list available checks and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: spiderlint [flags] [packages]\n\npackages are ./... (default), ./path/dir or import-path suffixes\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, c := range lint.Checks() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(stderr, "spiderlint:", err)
		return 2
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "spiderlint:", err)
		return 2
	}
	m, err := lint.LoadDir(root)
	if err != nil {
		fmt.Fprintln(stderr, "spiderlint:", err)
		return 2
	}

	diags := filterByPatterns(m, lint.Run(m, lint.DefaultConfig(), checks), fs.Args())
	cwd, _ := os.Getwd()
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, relErr := filepath.Rel(cwd, name); relErr == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", name, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "spiderlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectChecks resolves the -checks flag against the suite: every check
// when csv is empty, else exactly the named ones.
func selectChecks(csv string) ([]*lint.Check, error) {
	all := lint.Checks()
	if csv == "" {
		return all, nil
	}
	byName := map[string]*lint.Check{}
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*lint.Check
	for _, n := range strings.Split(csv, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if byName[n] == nil {
			return nil, fmt.Errorf("unknown check %q (known: %s)", n, strings.Join(lint.CheckNames(), ", "))
		}
		out = append(out, byName[n])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no checks selected")
	}
	return out, nil
}

// filterByPatterns keeps diagnostics in packages matching the command-line
// patterns. "./..." (or no patterns) keeps everything; "./x/y" and "x/y"
// match by module-relative path, and a trailing "/..." matches the subtree.
func filterByPatterns(m *lint.Module, diags []lint.Diagnostic, patterns []string) []lint.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	keepAll := false
	var exact, subtree []string
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			keepAll = true
			continue
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			subtree = append(subtree, rest)
			continue
		}
		exact = append(exact, pat)
	}
	if keepAll {
		return diags
	}
	keepFile := func(filename string) bool {
		rel, err := filepath.Rel(m.Dir, filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			return true // outside the module (shouldn't happen): keep visible
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "." {
			dir = ""
		}
		for _, p := range exact {
			if dir == p {
				return true
			}
		}
		for _, p := range subtree {
			if dir == p || strings.HasPrefix(dir, p+"/") {
				return true
			}
		}
		return false
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		if keepFile(d.Pos.Filename) {
			out = append(out, d)
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
