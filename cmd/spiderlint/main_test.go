package main

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spidercache/internal/lint"
)

// writeTempModule lays a tiny module on disk and returns its root.
func writeTempModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runCapture invokes run() with stdout captured to a file.
func runCapture(t *testing.T, args []string) (int, string) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run(args, out, os.Stderr)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// TestRunExitCodes drives run() end to end inside a fixture module: a
// finding prints as file:line:col: [check] message with exit 1, and a
// clean module prints nothing with exit 0.
func TestRunExitCodes(t *testing.T) {
	t.Chdir(writeTempModule(t, `package main

import "sync"

var mu sync.Mutex

func leak() {
	mu.Lock()
}

func main() {}
`))
	code, out := runCapture(t, []string{"-checks", "mutexhygiene"})
	if code != 1 {
		t.Fatalf("dirty module: exit %d, want 1; output:\n%s", code, out)
	}
	if want := "main.go:8:2: [mutexhygiene] mu.Lock() is never released"; !strings.HasPrefix(out, want) || strings.Count(out, "\n") != 1 {
		t.Errorf("dirty module output = %q, want one line starting %q", out, want)
	}

	t.Chdir(writeTempModule(t, "package main\n\nfunc main() {}\n"))
	if code, out := runCapture(t, nil); code != 0 || out != "" {
		t.Fatalf("clean module: exit %d, output %q; want 0 and nothing", code, out)
	}
}

func TestSelectChecks(t *testing.T) {
	all := lint.CheckNames()

	got, err := selectChecks("")
	if err != nil || len(got) != len(all) {
		t.Fatalf("default selection = %d checks (%v), want all %d", len(got), err, len(all))
	}

	got, err = selectChecks("determinism,errcheck")
	if err != nil || len(got) != 2 || got[0].Name != "determinism" || got[1].Name != "errcheck" {
		t.Fatalf("-checks selection = %v (%v)", names(got), err)
	}

	if _, err = selectChecks("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("unknown -checks name: err = %v", err)
	}
	if _, err = selectChecks(" , "); err == nil {
		t.Fatal("an empty -checks list must error, not run nothing")
	}
}

func names(cs []*lint.Check) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return out
}

func TestFilterByPatterns(t *testing.T) {
	m := &lint.Module{Path: "spidercache", Dir: "/repo"}
	diag := func(file string) lint.Diagnostic {
		return lint.Diagnostic{Pos: token.Position{Filename: file, Line: 1}, Check: "x", Message: "m"}
	}
	diags := []lint.Diagnostic{
		diag("/repo/internal/kvserver/server.go"),
		diag("/repo/internal/kvserver/deep/extra.go"),
		diag("/repo/internal/tensor/matmul.go"),
		diag("/repo/main.go"),
	}

	if got := filterByPatterns(m, diags, nil); len(got) != 4 {
		t.Errorf("no patterns: kept %d, want 4", len(got))
	}
	if got := filterByPatterns(m, diags, []string{"./..."}); len(got) != 4 {
		t.Errorf("./...: kept %d, want 4", len(got))
	}
	if got := filterByPatterns(m, diags, []string{"./internal/kvserver"}); len(got) != 1 {
		t.Errorf("./internal/kvserver: kept %d, want 1", len(got))
	}
	if got := filterByPatterns(m, diags, []string{"./internal/kvserver/..."}); len(got) != 2 {
		t.Errorf("./internal/kvserver/...: kept %d, want 2", len(got))
	}
	if got := filterByPatterns(m, diags, []string{"internal/tensor", "./internal/kvserver"}); len(got) != 2 {
		t.Errorf("two patterns: kept %d, want 2", len(got))
	}
}
