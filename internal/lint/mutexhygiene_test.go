package lint

import "testing"

func TestMutexHygienePositive(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"app": {"app.go": `package app

import "sync"

type S struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ch  chan int
	n   int
}

// Return squeezed between Lock and the deferred release.
func (s *S) EarlyReturn(cond bool) {
	s.mu.Lock()
	if cond {
		return
	}
	defer s.mu.Unlock()
	s.n++
}

// Locked and never released anywhere in the function.
func (s *S) Leak() {
	s.mu.Lock()
	s.n++
}

// Inline release on one path, bare return on the other.
func (s *S) MissedPath(cond bool) int {
	s.mu.Lock()
	if cond {
		return 1
	}
	s.mu.Unlock()
	return 0
}

// Channel send while the RWMutex is write-locked starves every reader.
func (s *S) SendUnderWriteLock(v int) {
	s.rw.Lock()
	s.ch <- v
	s.rw.Unlock()
}

// Channel receive while write-locked.
func (s *S) RecvUnderWriteLock() int {
	s.rw.Lock()
	v := <-s.ch
	s.rw.Unlock()
	return v
}
`},
	})
	diags := runNamed(t, m, DefaultConfig(), "mutexhygiene")
	wantDiag(t, diags, "mutexhygiene", "return between s.mu.Lock() and its deferred release", 1)
	wantDiag(t, diags, "mutexhygiene", "never released in this function", 1)
	wantDiag(t, diags, "mutexhygiene", "return while s.mu is held", 1)
	wantDiag(t, diags, "mutexhygiene", "channel send while s.rw is write-locked", 1)
	wantDiag(t, diags, "mutexhygiene", "channel receive while s.rw is write-locked", 1)
}

func TestMutexHygieneNegative(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"app": {"app.go": `package app

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

// The canonical shape.
func (s *S) Deferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Inline release on every path.
func (s *S) Inline(cond bool) int {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return 1
	}
	s.mu.Unlock()
	return 0
}

// Deferred closure releasing the lock counts as a release.
func (s *S) DeferredClosure() {
	s.mu.Lock()
	defer func() {
		s.n++
		s.mu.Unlock()
	}()
	s.n++
}

// Read locks may overlap channel traffic: readers do not starve readers.
func (s *S) SendUnderReadLock(v int) {
	s.rw.RLock()
	s.ch <- v
	s.rw.RUnlock()
}

// A plain Mutex across a send is a throughput question, not the RW
// write-starvation shape this check hunts.
func (s *S) SendUnderPlainLock(v int) {
	s.mu.Lock()
	s.ch <- v
	s.mu.Unlock()
}

// Unlock/relock inside a loop body: state returns to locked each pass.
func (s *S) Batched(work []int) {
	s.mu.Lock()
	for range work {
		s.mu.Unlock()
		s.mu.Lock()
		s.n++
	}
	s.mu.Unlock()
}

// A goroutine spawned under the lock has its own locking discipline.
func (s *S) Spawns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}
`},
	})
	wantNone(t, runNamed(t, m, DefaultConfig(), "mutexhygiene"))
}

// TestMutexHygieneCFGOnly covers shapes a syntax-level check without path
// facts gets wrong: blocking calls after the deferred release is
// installed, and non-blocking selects (default clause) that a heuristic
// would flag. A goto is the one jump the walker does not follow: it
// reports the label and the goto instead of tracing the function.
func TestMutexHygieneCFGOnly(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"app": {"app.go": `package app

import (
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

// The goto jumps over the only release: the return at out: executes with
// the lock held. The walker does not follow the jump, so it says so.
func (s *S) GotoLeak(cond bool) int {
	s.mu.Lock()
	if cond {
		goto out
	}
	s.mu.Unlock()
	return 0
out:
	return s.n
}

// Sleeping after the deferred release is installed still sleeps with the
// write lock held — the defer only runs at function exit.
func (s *S) SleepUnderDeferredLock() {
	s.rw.Lock()
	defer s.rw.Unlock()
	time.Sleep(time.Millisecond)
	s.n++
}

// A select with a default clause never blocks; the old heuristic flagged
// every select under a write lock.
func (s *S) NonBlockingKick() {
	s.rw.Lock()
	defer s.rw.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
	s.n++
}
`},
	})
	diags := runNamed(t, m, DefaultConfig(), "mutexhygiene")
	wantDiag(t, diags, "mutexhygiene", "mutexhygiene does not follow labels or goto", 2)
	wantDiag(t, diags, "mutexhygiene", "return while s.mu is held", 0)
	wantDiag(t, diags, "mutexhygiene", "time.Sleep while s.rw is write-locked", 1)
	wantDiag(t, diags, "mutexhygiene", "select", 0)
	wantDiag(t, diags, "mutexhygiene", "channel send", 0)
}

// TestMutexHygieneLoopsAndClauses pins where break, continue and the
// loop's fixed point carry the facts: a break leaves the innermost loop,
// switch or select, and a loop's head holds what every pass brings back.
func TestMutexHygieneLoopsAndClauses(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"app": {"app.go": `package app

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

// The loop is left only by the break, taken with the lock held.
func (s *S) BreakHeld() {
	for {
		s.mu.Lock()
		if s.n > 0 {
			break
		}
		s.mu.Unlock()
	}
	return
}

// The break leaves the select, not the loop: the loop is never left, so
// the return after it is unreachable.
func (s *S) SelectBreak() int {
	s.mu.Lock()
	for {
		select {
		case v := <-s.ch:
			if v > 0 {
				s.mu.Unlock()
				return v
			}
			break
		}
	}
	return 0
}

// Every pass unlocks and relocks, so the loop ends write-locked.
func (s *S) Relock(work []int) {
	s.rw.Lock()
	for range work {
		s.rw.Unlock()
		s.n++
		s.rw.Lock()
	}
	s.ch <- s.n
	s.rw.Unlock()
}
`},
	})
	diags := runNamed(t, m, DefaultConfig(), "mutexhygiene")
	wantDiag(t, diags, "mutexhygiene", "return while s.mu is held", 1)
	wantDiag(t, diags, "mutexhygiene", "channel send while s.rw is write-locked", 1)
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}

func TestMutexHygieneSuppression(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"app": {"app.go": `package app

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

// A lock helper that hands the held lock to its caller.
func (s *S) lockForUpdate() {
	//lint:ignore mutexhygiene lock intentionally escapes; released by unlockAfterUpdate
	s.mu.Lock()
	s.n++
}

func (s *S) unlockAfterUpdate() {
	s.mu.Unlock()
}
`},
	})
	wantNone(t, runNamed(t, m, DefaultConfig(), "mutexhygiene"))
}
