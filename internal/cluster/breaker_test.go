package cluster

import (
	"errors"
	"net"
	"testing"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
	"spidercache/internal/simclock"
	"spidercache/internal/telemetry"
)

// newTestBreaker returns a breaker on a deterministic simclock whose
// gauge is node "n" in reg.
func newTestBreaker(clock *simclock.Clock, reg *telemetry.Registry) *breaker {
	b := newBreaker(reg.Gauge("kv_breaker_state", telemetry.Labels{"node": "n"}))
	b.now = clock.Now
	return b
}

// current reports the state, moving open -> half-open first if the open
// interval has elapsed, so the test sees the state allow would.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

func TestBreakerFullCycle(t *testing.T) {
	clock := &simclock.Clock{}
	reg := telemetry.NewRegistry()
	b := newTestBreaker(clock, reg)
	gauge := func() breakerState { return breakerGauge(reg, "n") }

	if b.current() != breakerClosed || gauge() != breakerClosed {
		t.Fatalf("initial state = %v (gauge %v), want closed", b.current(), gauge())
	}

	// Closed -> open: breakerMinSamples failures put the window at a 100%
	// failure rate with the sample floor reached.
	for i := 0; i < breakerMinSamples; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker denied request %d", i)
		}
		b.record(true)
	}
	if b.current() != breakerOpen || gauge() != breakerOpen {
		t.Fatalf("state after %d failures = %v (gauge %v), want open", breakerMinSamples, b.current(), gauge())
	}
	if b.allow() {
		t.Fatal("open breaker allowed a request before breakerOpenFor elapsed")
	}

	// Open -> half-open: once breakerOpenFor elapses one probe flows, and
	// only one at a time.
	clock.Advance(breakerOpenFor)
	if b.current() != breakerHalfOpen {
		t.Fatalf("state after breakerOpenFor = %v, want half-open", b.current())
	}
	if !b.allow() {
		t.Fatal("half-open breaker denied its probe")
	}
	if gauge() != breakerHalfOpen {
		t.Fatalf("gauge after the probe was let through = %v, want half-open", gauge())
	}
	if b.allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}

	// Half-open -> closed: the probe succeeds.
	b.record(false)
	if b.current() != breakerClosed || gauge() != breakerClosed {
		t.Fatalf("state after a probe success = %v (gauge %v), want closed", b.current(), gauge())
	}

	// The window was reset on close: a single failure must not re-trip.
	if !b.allow() {
		t.Fatal("re-closed breaker denied a request")
	}
	b.record(true)
	if b.current() != breakerClosed {
		t.Fatalf("one failure after close re-tripped: %v", b.current())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := &simclock.Clock{}
	b := newTestBreaker(clock, nil)
	for i := 0; i < breakerMinSamples; i++ {
		b.record(true)
	}
	clock.Advance(breakerOpenFor)
	if !b.allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	b.record(true)
	if b.current() != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.current())
	}
	// The reopen restarts the open interval from the failure.
	clock.Advance(breakerOpenFor - 1)
	if b.allow() {
		t.Fatal("reopened breaker allowed a request before the new interval elapsed")
	}
	clock.Advance(1)
	if !b.allow() {
		t.Fatal("reopened breaker denied the probe after the new interval elapsed")
	}
}

func TestBreakerMinSamplesGuard(t *testing.T) {
	clock := &simclock.Clock{}
	b := newTestBreaker(clock, nil)
	// One failure short of breakerMinSamples: must stay closed even at a
	// 100% failure rate.
	for i := 0; i < breakerMinSamples-1; i++ {
		b.record(true)
	}
	if b.current() != breakerClosed {
		t.Fatalf("breaker tripped below breakerMinSamples: %v", b.current())
	}
}

func TestBreakerSlidingWindowEvictsOldFailures(t *testing.T) {
	clock := &simclock.Clock{}
	b := newTestBreaker(clock, nil)
	// One early failure followed by a full window of successes: the failure
	// rate stays below threshold at every step, then the old failure is
	// evicted entirely.
	b.record(true)
	for i := 0; i < breakerWindow; i++ {
		b.record(false)
	}
	if b.current() != breakerClosed {
		t.Fatalf("diluted window tripped the breaker: %v", b.current())
	}
	// The failure rate is now 0; one failure short of half the window
	// stays below the threshold.
	half := int(breakerWindow * breakerThreshold)
	for i := 0; i < half-1; i++ {
		b.record(true)
	}
	if b.current() != breakerClosed {
		t.Fatalf("sub-threshold rate tripped the breaker: %v", b.current())
	}
	// One more failure reaches the threshold.
	b.record(true)
	if b.current() != breakerOpen {
		t.Fatalf("at-threshold rate did not trip the breaker: %v", b.current())
	}
}

// TestReplicaBreakerFailsFast: transport failures against a dead node open
// its breaker; further ops fail with errBreakerOpen without the op running
// at all, and once the open interval elapses a probe is let through, whose
// failure reopens the breaker. Errors the node did not cause do not count.
func TestReplicaBreakerFailsFast(t *testing.T) {
	leakcheck.Check(t)
	clock := &simclock.Clock{}
	reg := telemetry.NewRegistry()
	// A dead node that still accepts: every connection is closed at once,
	// so the pool's dial succeeds, the op runs, and its read fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	r := &replica{pool: kvserver.NewPool(ln.Addr().String(), 1, 0), breaker: newTestBreaker(clock, reg)}
	defer r.pool.Close()
	ran := 0
	get := func(c *kvserver.Client) error {
		ran++
		_, _, err := c.Get("k")
		return err
	}

	// Neither a protocol answer nor a pool closed under the op is the
	// node's fault.
	for i := 0; i < 2*breakerMinSamples; i++ {
		r.call(func(*kvserver.Client) error { return errors.New("kvserver: GET failed: odd reply") })
		r.call(func(*kvserver.Client) error { return kvserver.ErrPoolClosed })
	}
	if s := r.breaker.current(); s != breakerClosed {
		t.Fatalf("breaker after non-transport errors = %v, want closed", s)
	}

	for i := 0; i < breakerWindow; i++ {
		// Failures are the point; the breaker observes them.
		r.call(get)
	}
	if s := breakerGauge(reg, "n"); s != breakerOpen {
		t.Fatalf("breaker after transport failures = %v, want open", s)
	}
	before := ran
	if err := r.call(get); !errors.Is(err, errBreakerOpen) || ran != before {
		t.Fatalf("open-breaker op = %v, ran %d times; want errBreakerOpen without running", err, ran-before)
	}

	clock.Advance(breakerOpenFor)
	if err := r.call(get); errors.Is(err, errBreakerOpen) || ran != before+1 {
		t.Fatalf("half-open breaker did not send the probe: %v", err)
	}
	if s := breakerGauge(reg, "n"); s != breakerOpen {
		t.Fatalf("breaker after a failed probe = %v, want open (reopened)", s)
	}
}
