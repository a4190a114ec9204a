package main

// These tests run the built command as a subprocess: its exit status and
// files are the interface under test.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"spidercache/internal/experiments"
)

// bin is the spidertrain binary TestMain builds.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spidertrain")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "spidertrain")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// spidertrain runs the command on a tiny workload and returns its stdout,
// stderr and exit status.
func spidertrain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-scale", "0.06"}, args...)...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestCSVHasOneRowPerEpoch: -csv writes a comment line naming the run, the
// header, and one row per epoch, beside a printed table with a sub% column.
func TestCSVHasOneRowPerEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	stdout, stderr, code := spidertrain(t, "-epochs", "2", "-csv", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if header := strings.Fields(strings.SplitN(stdout, "\n", 2)[0]); len(header) < 3 || header[2] != "sub%" {
		t.Errorf("printed header %q has no sub%% column", header)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	want := []string{
		"# policy=SpiderCache model=ResNet18 dataset=CIFAR10-like",
		"epoch,hit_ratio,sub_ratio,accuracy,train_loss,epoch_ms,score_std,imp_ratio",
	}
	if len(lines) != 4 || lines[0] != want[0] || lines[1] != want[1] {
		t.Fatalf("CSV is not a comment, the header and 2 rows:\n%s", body)
	}
	for i, row := range lines[2:] {
		if cells := strings.Split(row, ","); len(cells) != 8 || cells[0] != strconv.Itoa(i) {
			t.Errorf("row %d: %q", i, row)
		}
	}
}

// TestBadFlagsExitOne: every out-of-range flag is an error, exit status 1,
// for every policy, never a panic from inside a cache constructor and
// never a silent default.
func TestBadFlagsExitOne(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-epochs", "0"}, "Epochs"},
		{[]string{"-batch", "0"}, "BatchSize"},
		{[]string{"-workers", "0"}, "Workers"},
		{[]string{"-cache", "NaN"}, "-cache NaN"},
		{[]string{"-cache", "1.5"}, "-cache 1.5"},
		{[]string{"-cache", "-0.5", "-policy", "baseline"}, "-cache -0.5"},
		{[]string{"-model", "LeNet"}, "LeNet"},
		// The elastic range is checked for policies that do not read it.
		{[]string{"-policy", "baseline", "-rstart", "2"}, "RStart"},
		{[]string{"-rstart", "0.5", "-rend", "0.9"}, "REnd"},
		{[]string{"-rend", "NaN"}, "REnd"},
	} {
		_, stderr, code := spidertrain(t, append([]string{"-epochs", "1"}, tc.args...)...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestUnknownPolicyNamedFirst: an unknown policy is named, with every
// accepted name, before the dataset is built, so a bad dataset beside it
// goes unreported.
func TestUnknownPolicyNamedFirst(t *testing.T) {
	want := `unknown policy "bogus" (want one of ` + strings.Join(experiments.PolicyNames(), ", ") + ")"
	_, stderr, code := spidertrain(t, "-epochs", "1", "-policy", "bogus", "-dataset", "mnist")
	if code != 1 || !strings.Contains(stderr, want) {
		t.Errorf("exit %d, stderr %q; want exit 1 and %q", code, stderr, want)
	}
}
