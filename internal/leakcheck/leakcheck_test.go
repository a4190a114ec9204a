package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// baseline returns the current goroutine IDs as a waitForExit base set.
func baseline() map[string]bool {
	base := map[string]bool{}
	for _, g := range liveGoroutines() {
		base[g.id] = true
	}
	return base
}

func TestDetectsLeakedGoroutine(t *testing.T) {
	base := baseline()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-block
	}()
	<-started

	leaked := waitForExit(base, 50*time.Millisecond)
	if len(leaked) != 1 {
		t.Fatalf("want 1 leaked goroutine, got %d", len(leaked))
	}
	if !strings.Contains(leaked[0].stack, "TestDetectsLeakedGoroutine") {
		t.Errorf("leak report does not name the spawning test:\n%s", leaked[0].stack)
	}

	// Released, the goroutine must drop out within the retry window.
	close(block)
	if leaked := waitForExit(base, retryDeadline); len(leaked) != 0 {
		t.Errorf("goroutine still reported after release: %d", len(leaked))
	}
}

func TestWaitsForSlowExit(t *testing.T) {
	base := baseline()
	go func() {
		time.Sleep(30 * time.Millisecond)
	}()
	// The goroutine is alive right now but exits well within the retry
	// window: no leak.
	if leaked := waitForExit(base, retryDeadline); len(leaked) != 0 {
		t.Errorf("slow-exiting goroutine reported as a leak: %d", len(leaked))
	}
}

// TestCheckPassesOnCleanTest is the happy-path end-to-end use.
func TestCheckPassesOnCleanTest(t *testing.T) {
	Check(t)
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
