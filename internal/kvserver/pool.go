package kvserver

import (
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed is returned by pool operations after Close. It fails fast:
// an op blocked waiting for a free connection is woken, never left hanging.
var ErrPoolClosed = errors.New("kvserver: pool is closed")

// ErrNodeDown is returned by an op that needed a new connection within
// redialBackoff of a failed dial to the pool's node: the op fails at once
// and nothing is dialled.
var ErrNodeDown = errors.New("kvserver: node down, a dial to it just failed")

// redialBackoff is how long a failed dial keeps a pool from dialling its
// node again. It is short enough that a restarted node is reached within
// half a second.
const redialBackoff = 500 * time.Millisecond

// Pool is a fixed-size pool of client connections, safe for concurrent
// use. Do is the only way in: it checks a connection out, runs the caller's
// ops on it once (one Client call, or a Pipeline of many in one flush), and
// hands the connection back on every way out, retiring a broken one so its
// slot redials lazily and one failed op never shrinks the pool.
//
// No op is retried: a failure is the caller's to route around, where
// there is somewhere else to go (cluster.Client's replica walk, the
// trainer's backing storage). The one thing the pool remembers of its
// node's health is a failed dial: for redialBackoff after one, an op that
// needs a new connection fails with ErrNodeDown instead of dialling, so a
// dead node costs each slot one failed dial per backoff, not one per op.
// Live pooled connections are used regardless.
type Pool struct {
	addr  string
	conns chan *Client // nil entry = slot needs a redial
	done  chan struct{}

	mu         sync.Mutex
	closed     bool
	dialFailed time.Time // when a dial to addr last failed; zero if none has
}

// NewPool builds a pool of size connections to addr, with no deadline on
// a dial, a reply read or a request flush. Every slot is dialled on first
// use, so NewPool never fails, even while the node is down — failover
// clients construct against unreachable nodes. A size below 1 is taken
// as 1.
func NewPool(addr string, size int) *Pool {
	size = max(size, 1)
	p := &Pool{
		addr:  addr,
		conns: make(chan *Client, size),
		done:  make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		p.conns <- nil
	}
	return p
}

// acquire checks a connection out of the pool, blocking until one is free.
// It fails fast with ErrPoolClosed on a closed pool — including a close
// that lands while the caller is blocked waiting for a slot — and with
// ErrNodeDown when an empty slot's redial is backing off. Only Do calls
// it, and hands the connection back with release or discard.
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
		c2, err := p.redial()
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

// redial dials the pool's node for an empty slot, unless a dial to it
// failed less than redialBackoff ago: then it fails with ErrNodeDown
// without dialling. A failed dial starts a new backoff.
func (p *Pool) redial() (*Client, error) {
	p.mu.Lock()
	down := time.Since(p.dialFailed) < redialBackoff
	p.mu.Unlock()
	if down {
		return nil, ErrNodeDown
	}
	c, err := Dial(p.addr, 0)
	if err != nil {
		p.mu.Lock()
		p.dialFailed = time.Now()
		p.mu.Unlock()
	}
	return c, err
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

// Do runs f with a pooled connection, once. If f returns an error the
// connection is assumed poisoned (mid-stream state is unknowable) and is
// discarded; the slot redials on next use.
//
// The connection goes back in a defer placed right after the acquire, so
// no return (or panic) between here and the end can leak its slot: it is
// released when f succeeded and discarded otherwise.
func (p *Pool) Do(f func(*Client) error) error {
	c, err := p.acquire()
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if ok {
			p.release(c)
		} else {
			p.discard(c)
		}
	}()
	if err := f(c); err != nil {
		return err
	}
	ok = true
	return nil
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
