package main

// These tests run the built command as a subprocess: its output lines,
// which the benchmark harness parses, and its exit status are the
// interface under test.

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"spidercache/internal/kvserver"
)

// bin is the spiderkv binary TestMain builds.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spiderkv")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "spiderkv")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// exitCode returns the status of a finished command.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return 0
}

// TestServeRoundTripAndShutdown: the daemon announces its address and
// settings in the line the harness parses, serves a SET and a GET, and on
// SIGTERM says it is shutting down and exits 0.
func TestServeRoundTripAndShutdown(t *testing.T) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-capacity", "64")
	var errOut strings.Builder
	cmd.Stderr = &errOut
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	next := func() string {
		t.Helper()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stdout closed early; stderr: %s", errOut.String())
			}
			return line
		case <-time.After(10 * time.Second):
			t.Fatal("no line within 10s")
		}
		return ""
	}

	announce := regexp.MustCompile(`^spiderkv: serving on (127\.0\.0\.1:\d+) \(capacity=64 shards=1 gossip=500ms\)$`)
	line := next()
	m := announce.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("announce line %q does not match %s", line, announce)
	}
	c, err := kvserver.Dial(m[1], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.Set("k", []byte("v"))
	if res, err := p.Exec(); err != nil || res[0].Err != nil {
		t.Fatalf("SET k: %v, %v", err, res)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("GET k = %q, %v, %v; want \"v\"", v, ok, err)
	}
	c.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if line := next(); line != "spiderkv: terminated, shutting down" {
		t.Errorf("after SIGTERM: %q", line)
	}
	for range lines {
	}
	if code := exitCode(t, cmd.Wait()); code != 0 {
		t.Fatalf("exit %d after SIGTERM; stderr: %s", code, errOut.String())
	}
}

// TestBadFlags: a capacity below 1 is the store's error, exit 1; a flag
// spiderkv does not define is the flag package's usage, exit 2.
func TestBadFlags(t *testing.T) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-capacity", "0")
	out, err := cmd.Output()
	if code := exitCode(t, err); code != 1 {
		t.Errorf("-capacity 0: exit %d, want 1", code)
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if got, want := string(exit.Stderr), "spiderkv: kvserver: -capacity must be >= 1, got 0\n"; got != want {
			t.Errorf("-capacity 0: stderr %q, want %q", got, want)
		}
	}
	if len(out) != 0 {
		t.Errorf("-capacity 0 printed %q", out)
	}

	if code := exitCode(t, exec.Command(bin, "-conns", "2").Run()); code != 2 {
		t.Errorf("-conns 2: exit %d, want 2", code)
	}
}
