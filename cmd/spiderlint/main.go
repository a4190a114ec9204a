// Command spiderlint runs the repository's project-specific static
// analysis suite (internal/lint) over the module: determinism, mutex
// hygiene and unchecked-write checks, all built on the standard library's
// go/parser + go/types with the source importer — no external tooling,
// works offline.
//
// Usage:
//
//	go run ./cmd/spiderlint ./...
//
// It takes no flags and no other package pattern: the module is the one
// whose go.mod encloses the working directory, and every check runs over
// all of it. Findings print as file:line:col: [check] message. Exit
// status: 0 clean, 1 findings, 2 load or usage failure. Suppress an
// intentional finding in place with `//lint:ignore <check> <reason>` on,
// or directly above, the flagged line.
package main

import (
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
	if len(args) != 1 || args[0] != "./..." {
		fmt.Fprintln(stderr, "usage: spiderlint ./...")
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

	diags := lint.Run(m, lint.DefaultConfig(), lint.Checks())
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
