// Package leakcheck asserts that a test leaves no goroutines behind. A test
// calls Check(t) before spawning anything; at cleanup time every goroutine
// that did not exist at the Check call must have exited. Because goroutine
// teardown races test completion (Close returns before the serving loop
// observes it), the comparison retries with backoff before declaring a leak.
// Only goroutines of the Go runtime and the testing framework are exempt;
// the module keeps no goroutine that parks forever, so every check is
// strict.
//
// The package is test-only infrastructure: it has no dependencies beyond
// runtime and is safe to wire into any suite.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// retryDeadline bounds how long cleanup waits for stragglers to exit.
const retryDeadline = 2 * time.Second

// Check snapshots the live goroutines and registers a cleanup that fails t
// if goroutines created after this call are still running when the test
// ends. Call it before the code under test spawns anything.
func Check(t testing.TB) {
	t.Helper()
	base := map[string]bool{}
	for _, g := range liveGoroutines() {
		base[g.id] = true
	}
	t.Cleanup(func() {
		if leaked := waitForExit(base, retryDeadline); len(leaked) > 0 {
			var b strings.Builder
			for _, g := range leaked {
				fmt.Fprintf(&b, "goroutine %s:\n%s\n", g.id, g.stack)
			}
			t.Errorf("leakcheck: %d goroutine(s) leaked by this test:\n%s", len(leaked), b.String())
		}
	})
}

// waitForExit polls until no unexpected goroutines remain or the deadline
// expires, returning the survivors.
func waitForExit(base map[string]bool, deadline time.Duration) []goroutine {
	var leaked []goroutine
	pause := time.Millisecond
	for start := time.Now(); ; {
		leaked = leaked[:0]
		for _, g := range liveGoroutines() {
			if !base[g.id] && !ignorable(g) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Since(start) > deadline {
			return leaked
		}
		time.Sleep(pause)
		if pause < 100*time.Millisecond {
			pause *= 2
		}
	}
}

// ignorable reports whether g is background machinery: the Go runtime and
// the testing framework own a few goroutines whose lifetime the test cannot
// control.
func ignorable(g goroutine) bool {
	for _, skip := range []string{
		"testing.tRunner",          // sibling parallel tests
		"testing.(*T).Run",         // subtest drivers
		"runtime.goexit0",          // mid-teardown goroutines
		"runtime_mcall",            // scheduler internals caught mid-switch
		"os/signal.signal_recv",    // signal delivery, started lazily
		"runtime.ReadTrace",        // execution tracer
		"runtime.ensureSigM",       // signal mask thread
		"leakcheck.liveGoroutines", // this package's own snapshot
	} {
		if strings.Contains(g.stack, skip) {
			return true
		}
	}
	return false
}

// goroutine is one parsed stanza of a full runtime.Stack dump.
type goroutine struct {
	id    string
	stack string
}

// liveGoroutines captures and parses the full goroutine dump. Goroutine IDs
// are never reused within a process, so they key the baseline comparison.
func liveGoroutines() []goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, stanza := range strings.Split(string(buf), "\n\n") {
		header, rest, _ := strings.Cut(stanza, "\n")
		if !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		id, _, ok := strings.Cut(strings.TrimPrefix(header, "goroutine "), " ")
		if !ok {
			continue
		}
		out = append(out, goroutine{id: id, stack: rest})
	}
	return out
}
