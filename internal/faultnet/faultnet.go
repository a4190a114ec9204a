// Package faultnet wraps net.Conn and net.Listener with seed-deterministic
// fault injection, so the serving tier's failure handling (retry, circuit
// breaking, failover) can be exercised from ordinary tests and fuzzers
// without a packet-mangling proxy.
//
// Faults are drawn per operation from an xrand stream derived from
// Config.Seed, so a given (seed, op sequence) always injects the same
// faults — a failing run replays exactly. Injectable faults:
//
//   - added latency before each read and write (Latency);
//   - short reads: Read returns fewer bytes than requested, without error
//     (legal per io.Reader; stresses reply framing);
//   - partial writes: Write delivers only a prefix to the wire and returns
//     ErrInjected with n < len(p) (legal per io.Writer: an error must
//     accompany a short write);
//   - read/write errors with nothing delivered;
//   - connection resets: the underlying conn is closed and the op fails,
//     so every later op on the conn fails too.
//
// Every injected fault increments kv_faults_injected_total{kind=...} when a
// telemetry registry is supplied, so a run can report how much abuse the
// client layer absorbed.
package faultnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// ErrInjected is the base error for every injected fault; callers match it
// with errors.Is. The concrete errors carry the fault kind for messages.
var ErrInjected = errors.New("faultnet: injected fault")

// injectedErr tags an injected fault with its kind.
type injectedErr struct{ kind string }

func (e injectedErr) Error() string { return "faultnet: injected " + e.kind }
func (e injectedErr) Unwrap() error { return ErrInjected }

// Config sets the per-operation fault probabilities (each in [0,1]) and the
// deterministic seed. The zero value injects nothing.
type Config struct {
	// Seed drives the deterministic fault stream. Connections accepted by a
	// Listener derive their own stream from Seed and the accept index, so
	// concurrent connections stay individually deterministic.
	Seed uint64
	// Latency is added before every read and write (0 = none).
	Latency time.Duration
	// ShortReadProb truncates a read to a random shorter length (no error).
	ShortReadProb float64
	// PartialWriteProb delivers a random proper prefix and returns
	// ErrInjected (n < len(p), as the io.Writer contract requires).
	PartialWriteProb float64
	// ReadErrProb fails a read with ErrInjected, delivering nothing.
	ReadErrProb float64
	// WriteErrProb fails a write with ErrInjected, delivering nothing.
	WriteErrProb float64
	// ResetProb closes the underlying connection and fails the op; every
	// later op on the conn fails naturally.
	ResetProb float64
	// Registry counts injected faults (kv_faults_injected_total{kind=});
	// nil disables counting.
	Registry *telemetry.Registry
}

// Validate reports a descriptive error for out-of-range probabilities.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ShortReadProb", c.ShortReadProb},
		{"PartialWriteProb", c.PartialWriteProb},
		{"ReadErrProb", c.ReadErrProb},
		{"WriteErrProb", c.WriteErrProb},
		{"ResetProb", c.ResetProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s must be in [0,1], got %g", p.name, p.v)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("faultnet: Latency must be >= 0, got %v", c.Latency)
	}
	return nil
}

// counters groups the per-kind fault counters; shared by every conn of one
// Wrap/WrapListener call.
type counters struct {
	latency, shortRead, partialWrite *telemetry.Counter
	readErr, writeErr, reset         *telemetry.Counter
}

func newCounters(reg *telemetry.Registry) *counters {
	reg.Describe("kv_faults_injected_total", "faults injected into the serving path by faultnet, by kind")
	return &counters{
		latency:      reg.Counter("kv_faults_injected_total", telemetry.Labels{"kind": "latency"}),
		shortRead:    reg.Counter("kv_faults_injected_total", telemetry.Labels{"kind": "short_read"}),
		partialWrite: reg.Counter("kv_faults_injected_total", telemetry.Labels{"kind": "partial_write"}),
		readErr:      reg.Counter("kv_faults_injected_total", telemetry.Labels{"kind": "read_error"}),
		writeErr:     reg.Counter("kv_faults_injected_total", telemetry.Labels{"kind": "write_error"}),
		reset:        reg.Counter("kv_faults_injected_total", telemetry.Labels{"kind": "reset"}),
	}
}

// Conn is a fault-injecting net.Conn wrapper.
type Conn struct {
	net.Conn
	cfg Config
	ctr *counters

	mu  sync.Mutex // guards rng; net.Conn allows concurrent Read/Write
	rng *xrand.Rand
}

// Wrap returns conn with cfg's faults injected. The fault stream is seeded
// from cfg.Seed directly; use WrapListener for per-connection streams.
func Wrap(conn net.Conn, cfg Config) *Conn {
	return newConn(conn, cfg, xrand.New(cfg.Seed), newCounters(cfg.Registry))
}

func newConn(conn net.Conn, cfg Config, rng *xrand.Rand, ctr *counters) *Conn {
	return &Conn{Conn: conn, cfg: cfg, rng: rng, ctr: ctr}
}

// roll draws one uniform float under the rng lock.
func (c *Conn) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// intn draws a uniform int in [0,n) under the rng lock.
func (c *Conn) intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// delay injects the configured latency before an op.
func (c *Conn) delay() {
	if c.cfg.Latency > 0 {
		c.ctr.latency.Inc()
		time.Sleep(c.cfg.Latency)
	}
}

// reset closes the underlying conn and returns the injected reset error.
func (c *Conn) reset() error {
	c.ctr.reset.Inc()
	//lint:ignore errcheck the injected reset error is what callers see; Close failure adds nothing
	c.Conn.Close()
	return injectedErr{kind: "connection reset"}
}

// Read injects read faults, then reads from the wrapped conn (possibly a
// truncated request for a short read).
func (c *Conn) Read(p []byte) (int, error) {
	c.delay()
	if c.cfg.ResetProb > 0 && c.roll() < c.cfg.ResetProb {
		return 0, c.reset()
	}
	if c.cfg.ReadErrProb > 0 && c.roll() < c.cfg.ReadErrProb {
		c.ctr.readErr.Inc()
		return 0, injectedErr{kind: "read error"}
	}
	if len(p) > 1 && c.cfg.ShortReadProb > 0 && c.roll() < c.cfg.ShortReadProb {
		c.ctr.shortRead.Inc()
		p = p[:1+c.intn(len(p)-1)]
	}
	return c.Conn.Read(p)
}

// Write injects write faults, then writes to the wrapped conn. A partial
// write delivers a proper prefix and returns n < len(p) with ErrInjected,
// as the io.Writer contract requires for short writes.
func (c *Conn) Write(p []byte) (int, error) {
	c.delay()
	if c.cfg.ResetProb > 0 && c.roll() < c.cfg.ResetProb {
		return 0, c.reset()
	}
	if c.cfg.WriteErrProb > 0 && c.roll() < c.cfg.WriteErrProb {
		c.ctr.writeErr.Inc()
		return 0, injectedErr{kind: "write error"}
	}
	if len(p) > 1 && c.cfg.PartialWriteProb > 0 && c.roll() < c.cfg.PartialWriteProb {
		c.ctr.partialWrite.Inc()
		n, err := c.Conn.Write(p[:1+c.intn(len(p)-1)])
		if err != nil {
			return n, err
		}
		return n, injectedErr{kind: "partial write"}
	}
	return c.Conn.Write(p)
}

// Listener wraps accepted connections with fault injection. Each accepted
// conn gets its own fault stream derived from Config.Seed and the accept
// index, so per-connection behaviour is deterministic regardless of how
// goroutines interleave across connections.
type Listener struct {
	net.Listener
	cfg Config
	ctr *counters

	mu   sync.Mutex
	next uint64 // accept index
}

// WrapListener returns ln with every accepted conn wrapped via cfg.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, ctr: newCounters(cfg.Registry)}
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	idx := l.next
	l.next++
	l.mu.Unlock()
	// SplitMix-style index mixing keeps per-conn streams uncorrelated.
	rng := xrand.New(l.cfg.Seed ^ (idx+1)*0x9e3779b97f4a7c15)
	return newConn(conn, l.cfg, rng, l.ctr), nil
}
