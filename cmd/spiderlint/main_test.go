package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunExitCodes drives run() end to end inside fixture modules: a
// finding prints as file:line:col: [check] message with exit 1, a clean
// module prints nothing with exit 0, a module that does not parse exits 2,
// and so does any argument list but ./... .
func TestRunExitCodes(t *testing.T) {
	t.Chdir(writeTempModule(t, `package main

import "sync"

var mu sync.Mutex

func leak() {
	mu.Lock()
}

func main() {}
`))
	code, out := runCapture(t, []string{"./..."})
	if code != 1 {
		t.Fatalf("dirty module: exit %d, want 1; output:\n%s", code, out)
	}
	if want := "main.go:8:2: [mutexhygiene] mu.Lock() is never released"; !strings.HasPrefix(out, want) || strings.Count(out, "\n") != 1 {
		t.Errorf("dirty module output = %q, want one line starting %q", out, want)
	}

	t.Chdir(writeTempModule(t, "package main\n\nfunc main() {}\n"))
	if code, out := runCapture(t, []string{"./..."}); code != 0 || out != "" {
		t.Fatalf("clean module: exit %d, output %q; want 0 and nothing", code, out)
	}
	for _, args := range [][]string{nil, {"./internal/kvserver"}, {"./...", "./..."}, {"-list"}, {"-checks", "errcheck", "./..."}} {
		if code, out := runCapture(t, args); code != 2 || out != "" {
			t.Errorf("args %q: exit %d, output %q; want 2 and nothing", args, code, out)
		}
	}

	t.Chdir(writeTempModule(t, "package main\n\nfunc {\n"))
	if code, out := runCapture(t, []string{"./..."}); code != 2 || out != "" {
		t.Fatalf("unparsable module: exit %d, output %q; want 2 and nothing", code, out)
	}
}
