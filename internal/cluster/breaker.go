package cluster

import (
	"sync"
	"time"

	"spidercache/internal/telemetry"
)

// breakerState is the circuit breaker's three-state machine. Its values
// are what the kv_breaker_state gauge reads.
type breakerState int

const (
	// breakerClosed: requests flow; outcomes feed the sliding window.
	breakerClosed breakerState = iota
	// breakerHalfOpen: the open interval elapsed; one probe request tests
	// the node. Success closes the breaker, failure reopens it.
	breakerHalfOpen
	// breakerOpen: the failure rate tripped the threshold; requests fail
	// fast without touching the node until breakerOpenFor elapses.
	breakerOpen
)

// The breaker's tuning, one setting for every node.
const (
	// breakerWindow is the sliding window of recorded outcomes.
	breakerWindow = 32
	// breakerThreshold opens the breaker when the window's failure rate
	// reaches it, once breakerMinSamples outcomes are recorded.
	breakerThreshold = 0.5
	// breakerMinSamples keeps one early failure from tripping an idle node.
	breakerMinSamples = 8
	// breakerOpenFor is how long the breaker stays open before it lets a
	// half-open probe through.
	breakerOpenFor = 500 * time.Millisecond
)

// breaker is a per-node circuit breaker: a sliding window of op outcomes
// drives closed -> open -> half-open -> closed transitions, and every
// transition is published on the node's kv_breaker_state gauge. It is safe
// for concurrent use.
//
// Callers ask allow before an op and record the outcome after; an op
// denied by allow must not be sent (and must not be recorded).
type breaker struct {
	// now supplies monotonic time; tests substitute a fake clock.
	now   func() time.Duration
	gauge *telemetry.Gauge

	mu       sync.Mutex
	state    breakerState
	window   [breakerWindow]bool // ring of outcomes; true = failure
	next     int
	n        int
	fails    int
	openedAt time.Duration // now() at the open transition
	probing  bool          // the half-open probe is in flight
}

// newBreaker builds a closed breaker on the wall clock that publishes its
// state on gauge.
func newBreaker(gauge *telemetry.Gauge) *breaker {
	start := time.Now()
	b := &breaker{now: func() time.Duration { return time.Since(start) }, gauge: gauge}
	gauge.Set(float64(breakerClosed))
	return b
}

// allow reports whether a request may proceed. In half-open state only
// one probe may be in flight; further requests fail fast like open.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// record feeds one op outcome back. In closed state it updates the sliding
// window and trips to open past the failure threshold; in half-open state
// a success closes the breaker and a failure reopens it at once.
func (b *breaker) record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.push(failed)
		if b.n >= breakerMinSamples && float64(b.fails)/float64(b.n) >= breakerThreshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.probing = false
		if failed {
			b.trip()
			return
		}
		b.next, b.n, b.fails = 0, 0, 0
		b.window = [breakerWindow]bool{}
		b.set(breakerClosed)
	case breakerOpen:
		// A straggler from before the trip; the window is already moot.
	}
}

// maybeHalfOpen moves open -> half-open once breakerOpenFor has elapsed.
// Caller holds b.mu.
func (b *breaker) maybeHalfOpen() {
	if b.state == breakerOpen && b.now()-b.openedAt >= breakerOpenFor {
		b.probing = false
		b.set(breakerHalfOpen)
	}
}

// push records one outcome into the ring. Caller holds b.mu.
func (b *breaker) push(fail bool) {
	if b.n == len(b.window) {
		if b.window[b.next] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.window[b.next] = fail
	if fail {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.window)
}

// trip moves to open and stamps the open time. Caller holds b.mu.
func (b *breaker) trip() {
	b.openedAt = b.now()
	b.probing = false
	b.set(breakerOpen)
}

// set moves to state s and publishes it. Caller holds b.mu.
func (b *breaker) set(s breakerState) {
	b.state = s
	b.gauge.Set(float64(s))
}
