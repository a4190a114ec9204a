package kvserver

import (
	"errors"
	"sync"
	"time"

	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// ErrPoolClosed is returned by pool operations after Close. It fails fast:
// an op blocked waiting for a free connection is woken, never left hanging.
var ErrPoolClosed = errors.New("kvserver: pool is closed")

// ErrBreakerOpen is returned without touching the network when the pool's
// circuit breaker is open (or half-open with its probe quota in flight).
// Callers holding alternatives (cluster failover, backing storage) should
// route around the node rather than retry.
var ErrBreakerOpen = errors.New("kvserver: circuit breaker open")

// The retry backoff: exponential from retryBase, capped at retryMax, each
// delay randomised by ±retryJitter of itself so synchronised clients do
// not retry in lockstep.
const (
	retryBase   = 2 * time.Millisecond
	retryMax    = 100 * time.Millisecond
	retryJitter = 0.2
)

// poolTelemetry groups the pool's instruments, resolved once at NewPool.
// This is the single registration site for the kv_retries_total and
// kv_breaker_state families.
type poolTelemetry struct {
	retries      map[string]*telemetry.Counter // by op
	breakerState *telemetry.Gauge
}

func newPoolTelemetry(reg *telemetry.Registry, node string) poolTelemetry {
	reg.Describe("kv_retries_total", "pool op retries by op and node")
	reg.Describe("kv_breaker_state", "per-node circuit breaker state (0=closed 1=half-open 2=open)")
	tel := poolTelemetry{retries: make(map[string]*telemetry.Counter, 7)}
	for _, op := range []string{"get", "mget", "set", "mset", "del", "nget", "eset"} {
		tel.retries[op] = reg.Counter("kv_retries_total", telemetry.Labels{"op": op, "node": node})
	}
	tel.breakerState = reg.Gauge("kv_breaker_state", telemetry.Labels{"node": node})
	return tel
}

// Pool is a fixed-size pool of client connections, safe for concurrent
// use. Do and the typed ops (Get/Set/Del/MGet/MSet/NGet/ESet) are the only
// way in: each checks a connection out, runs the op, and hands the
// connection back on every way out, retiring a broken one so its slot
// redials lazily and one failed op never shrinks the pool.
//
// # Retry semantics
//
// The idempotent reads Get, MGet and NGet are tried up to Config.Retries
// times with exponential backoff + jitter, acquiring a fresh connection
// each time (the failed one is discarded). The mutations Set, MSet, Del
// and ESet retry at most ONCE, only with Retries >= 2, and only when the
// failure is provably pre-write: not a single byte of the request reached
// the socket (tracked per connection), so the server cannot have executed
// or partially received it. Any failure after bytes hit the wire is
// reported to the caller, because a blind re-send could double-apply the
// mutation. Do never retries: the pool cannot know what the closure sent.
//
// # Circuit breaker
//
// With Config.Breaker set, transport-level failures feed a per-node
// breaker; while it is open every op fails fast with ErrBreakerOpen and no
// connection is touched, giving the node time to recover and callers an
// immediate signal to fail over. Protocol-level errors (the node answered,
// just not what we expected) do not count against the breaker.
type Pool struct {
	addr    string
	timeout time.Duration
	retries int
	conns   chan *Client // nil entry = slot needs a redial
	done    chan struct{}

	mu     sync.Mutex
	closed bool

	breaker *Breaker
	tel     poolTelemetry

	rngMu sync.Mutex
	rng   *xrand.Rand
}

// NewPool builds a pool of cfg.PoolSize connections to addr with cfg's
// timeout, retry budget and breaker. Every slot is dialled on first use,
// so NewPool never fails, even while the node is down — failover clients
// construct against unreachable nodes. A PoolSize or Retries below 1 is
// taken as 1. reg receives the pool's telemetry, labelled with addr; nil
// records nothing. The backoff jitter stream is seeded from addr.
func NewPool(addr string, cfg Config, reg *telemetry.Registry) *Pool {
	size := max(cfg.PoolSize, 1)
	p := &Pool{
		addr:    addr,
		timeout: cfg.Timeout,
		retries: max(cfg.Retries, 1),
		conns:   make(chan *Client, size),
		done:    make(chan struct{}),
		tel:     newPoolTelemetry(reg, addr),
		rng:     xrand.New(uint64(fnv1a(addr))),
	}
	if cfg.Breaker != nil {
		p.breaker = NewBreaker(*cfg.Breaker)
	}
	for i := 0; i < size; i++ {
		p.conns <- nil
	}
	return p
}

// Breaker returns the pool's circuit breaker, or nil when disabled.
func (p *Pool) Breaker() *Breaker { return p.breaker }

// acquire checks a connection out of the pool, blocking until one is free.
// It fails fast with ErrPoolClosed on a closed pool — including a close
// that lands while the caller is blocked waiting for a slot. Only attempt
// calls it, and hands the connection back with release or discard.
func (p *Pool) acquire() (*Client, error) {
	var c *Client
	select {
	case <-p.done:
		return nil, ErrPoolClosed
	case c = <-p.conns:
	}
	if c == nil {
		// Slot was discarded; redial it now. On failure the slot stays
		// marked so the pool never shrinks.
		c2, err := Dial(p.addr, p.timeout)
		if err != nil {
			p.conns <- nil
			return nil, err
		}
		c = c2
	}
	// A Close that raced the wait or the redial has already drained the
	// channel and will never see this connection: close it here instead of
	// leaking it to a caller who would op against a closed pool.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		// The pool-closed error is what the caller sees.
		c.Close()
		return nil, ErrPoolClosed
	}
	p.mu.Unlock()
	return c, nil
}

// release returns a healthy connection to the pool. release(nil) panics:
// a nil connection has no slot to restore — a broken connection wants
// discard.
//
// The channel send happens under the pool mutex so it serialises with
// Close: either Close sees the connection in the channel and closes it, or
// release observes the closed flag and closes it directly. Either way no
// connection leaks. The send cannot block: every checked-out connection
// owns a buffered slot.
func (p *Pool) release(c *Client) {
	if c == nil {
		panic("kvserver: Pool.release(nil); use discard to retire a broken connection")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		// Nothing can act on a close failure of a retired connection.
		c.Close()
		return
	}
	p.conns <- c
	p.mu.Unlock()
}

// discard closes a broken connection and marks its slot for lazy redial.
func (p *Pool) discard(c *Client) {
	// The connection is already broken; its close error is noise.
	c.Close()
	p.conns <- nil
}

// Do runs f with a pooled connection — a single attempt, never retried
// (the pool cannot classify what the closure sent). If f returns an error
// the connection is assumed poisoned (mid-stream state is unknowable) and
// is discarded; the slot redials on next use. The breaker, if configured,
// gates and observes the attempt.
func (p *Pool) Do(f func(*Client) error) error {
	if !p.allow() {
		return ErrBreakerOpen
	}
	err, _ := p.attempt(f)
	p.record(err)
	return err
}

// attempt runs f over one acquired connection and reports whether a
// failure was provably pre-write: no byte of this op reached the socket,
// so the server cannot have seen any of it.
//
// The connection goes back in a defer placed right after the acquire, so
// no return (or panic) between here and the end can leak its slot: it is
// released when f succeeded and discarded otherwise.
func (p *Pool) attempt(f func(*Client) error) (err error, preWrite bool) {
	c, err := p.acquire()
	if err != nil {
		// Dial/closed failures happen before any request bytes exist.
		return err, true
	}
	ok := false
	defer func() {
		if ok {
			p.release(c)
		} else {
			p.discard(c)
		}
	}()
	mark := c.wroteBytes()
	if err := f(c); err != nil {
		return err, c.wroteBytes() == mark
	}
	ok = true
	return nil, false
}

// allow consults the breaker (always true when disabled) and publishes its
// state gauge.
func (p *Pool) allow() bool {
	if p.breaker == nil {
		return true
	}
	ok := p.breaker.Allow()
	p.tel.breakerState.Set(float64(p.breaker.State()))
	return ok
}

// record feeds an op outcome to the breaker. Only transport-level failures
// count: a node that answers with an unexpected reply is still up.
func (p *Pool) record(err error) {
	if p.breaker == nil {
		return
	}
	if errors.Is(err, ErrPoolClosed) {
		return // pool lifecycle, not node health
	}
	p.breaker.Record(err == nil || !isTransportErr(err))
	p.tel.breakerState.Set(float64(p.breaker.State()))
}

// backoff sleeps before retry number n (1-based) with exponential growth
// and deterministic jitter.
func (p *Pool) backoff(n int) {
	d := retryBase << (n - 1)
	if d > retryMax || d <= 0 {
		d = retryMax
	}
	p.rngMu.Lock()
	f := p.rng.Float64()
	p.rngMu.Unlock()
	time.Sleep(time.Duration(float64(d) * (1 + (2*f-1)*retryJitter)))
}

// doIdempotent runs f with the full retry budget: the op is read-only, so
// re-sending after any failure is safe.
func (p *Pool) doIdempotent(op string, f func(*Client) error) error {
	var lastErr error
	for i := 0; i < p.retries; i++ {
		if i > 0 {
			p.tel.retries[op].Inc()
			p.backoff(i)
		}
		if !p.allow() {
			if lastErr != nil {
				return lastErr
			}
			return ErrBreakerOpen
		}
		err, _ := p.attempt(f)
		p.record(err)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrPoolClosed) || errors.Is(err, errBadRequest) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// doMutate runs f with at most one retry, taken only when the first
// failure was provably pre-write — the request never touched the wire, so
// a re-send cannot double-apply the mutation.
func (p *Pool) doMutate(op string, f func(*Client) error) error {
	if !p.allow() {
		return ErrBreakerOpen
	}
	err, preWrite := p.attempt(f)
	p.record(err)
	if err == nil || !preWrite || p.retries < 2 ||
		errors.Is(err, ErrPoolClosed) || errors.Is(err, errBadRequest) {
		return err
	}
	p.tel.retries[op].Inc()
	p.backoff(1)
	if !p.allow() {
		return err
	}
	err2, _ := p.attempt(f)
	p.record(err2)
	return err2
}

// Get is Client.Get over a pooled connection (retried; idempotent).
func (p *Pool) Get(key string) (value []byte, found bool, err error) {
	err = p.doIdempotent("get", func(c *Client) error {
		var e error
		value, found, e = c.Get(key)
		return e
	})
	return value, found, err
}

// Set is Client.Set over a pooled connection (retried only pre-write).
func (p *Pool) Set(key string, value []byte) error {
	return p.doMutate("set", func(c *Client) error { return c.Set(key, value) })
}

// Del is Client.Del over a pooled connection (retried only pre-write).
func (p *Pool) Del(key string) (found bool, err error) {
	err = p.doMutate("del", func(c *Client) error {
		var e error
		found, e = c.Del(key)
		return e
	})
	return found, err
}

// MGet is Client.MGet over a pooled connection (retried; idempotent).
func (p *Pool) MGet(keys ...string) (values [][]byte, found []bool, err error) {
	err = p.doIdempotent("mget", func(c *Client) error {
		var e error
		values, found, e = c.MGet(keys...)
		return e
	})
	return values, found, err
}

// MSet is Client.MSet over a pooled connection (retried only pre-write).
func (p *Pool) MSet(keys []string, values [][]byte) error {
	return p.doMutate("mset", func(c *Client) error { return c.MSet(keys, values) })
}

// NGet is Client.NGet over a pooled connection (retried; idempotent —
// NGET never mutates, it only reads through the semantic index).
func (p *Pool) NGet(key string, emb []float32, threshold float64) (value []byte, near *Near, found bool, err error) {
	err = p.doIdempotent("nget", func(c *Client) error {
		var e error
		value, near, found, e = c.NGet(key, emb, threshold)
		return e
	})
	return value, near, found, err
}

// ESet is Client.ESet over a pooled connection (retried only pre-write,
// like every mutation — although re-indexing the same embedding is
// harmless, the uniform rule keeps the retry ledger honest).
func (p *Pool) ESet(key string, emb []float32) error {
	return p.doMutate("eset", func(c *Client) error { return c.ESet(key, emb) })
}

// Close closes every pooled connection and wakes ops blocked waiting for
// one, which fail with ErrPoolClosed; connections checked out at the time
// are closed when their op hands them back. Close is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	var first error
	for {
		select {
		case c := <-p.conns:
			if c != nil {
				if err := c.Close(); err != nil && first == nil {
					first = err
				}
			}
		default:
			return first
		}
	}
}
