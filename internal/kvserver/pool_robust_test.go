package kvserver

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"spidercache/internal/leakcheck"
)

// TestPoolAcquireCloseRace is the regression test for the acquire/Close
// deadlock: Close drains the conns channel, so an acquire that passed the
// closed check used to block forever on an empty channel. acquire must now
// fail fast with ErrPoolClosed. 1000 iterations (run under -race) cover
// the interleavings; a hang fails the test via the suite timeout.
func TestPoolAcquireCloseRace(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 16)
	for iter := 0; iter < 1000; iter++ {
		pool := NewPool(srv.Addr(), 1)
		// Check out the only connection so the concurrent acquire blocks
		// on the empty channel — the exact shape of the original deadlock.
		held, err := pool.acquire()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			c, err := pool.acquire()
			if err == nil {
				pool.release(c)
			}
			done <- err
		}()
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil && !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("iter %d: acquire returned %v, want nil or ErrPoolClosed", iter, err)
		}
		pool.release(held) // late release: pool must close the conn, not leak it
	}
}

// TestPoolCloseMidRedial: a pool closed while a slot is redialling must not
// leak the freshly dialed connection — the server's handler count returning
// to zero (checked by leakcheck via srv.Close in cleanup) and the explicit
// error check pin the behaviour.
func TestPoolCloseMidRedial(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 16)

	// A listener that accepts, then forwards to the real server only after
	// the pool has been closed, forcing the redial to complete mid-close.
	gate := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait() // registered first so proxy.Close() below runs before the wait
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := proxy.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				<-gate
				up, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					return
				}
				defer up.Close()
				go func() {
					buf := make([]byte, 4096)
					for {
						n, err := conn.Read(buf)
						if n > 0 {
							if _, werr := up.Write(buf[:n]); werr != nil {
								return
							}
						}
						if err != nil {
							return
						}
					}
				}()
				buf := make([]byte, 4096)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						if _, werr := conn.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	pool := NewPool(proxy.Addr().String(), 1)
	// The slot starts undialled, so this acquire dials through the
	// gated proxy. TCP connect succeeds immediately (the proxy accepted);
	// the pool is then closed before acquire's post-redial check runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := pool.acquire()
		if err == nil {
			// If the redial won the race, the conn must still be usable
			// and returned cleanly.
			pool.release(c)
		} else if !errors.Is(err, ErrPoolClosed) {
			t.Errorf("acquire after close-mid-redial: %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let acquire reach the dial
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-done
	// leakcheck (cleanup) verifies no proxy/server goroutine survives: a
	// leaked client conn would keep the proxy pump alive past the retry
	// window.
}

func TestPoolReleaseNilPanics(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 16)
	pool := NewPool(srv.Addr(), 1)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("release(nil) did not panic")
		}
	}()
	pool.release(nil)
}

func TestPoolLazyDial(t *testing.T) {
	leakcheck.Check(t)
	// A pool against a node that is down is built all the same...
	pool := NewPool("127.0.0.1:1", 2)
	if _, _, err := poolGet(pool, "k"); err == nil {
		t.Fatal("Get against a down node succeeded")
	}
	pool.Close()

	// ...and work normally once the node exists.
	srv := startServer(t, 16)
	pool = NewPool(srv.Addr(), 2)
	defer pool.Close()
	if err := poolSet(pool, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := poolGet(pool, "k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("lazy pool Get: %q %v %v", v, found, err)
	}
}

// TestPoolRedialsBrokenSlot: an op over a connection that broke while it
// sat in the pool fails once — the pool does not retry — and its slot
// redials lazily, so the next op succeeds on a fresh connection.
func TestPoolRedialsBrokenSlot(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 16)
	pool := NewPool(srv.Addr(), 1)
	defer pool.Close()
	if err := poolSet(pool, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Poison the pooled connection from the client side.
	c, err := pool.acquire()
	if err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	pool.release(c)
	if _, _, err := poolGet(pool, "k"); err == nil || errors.Is(err, errRefused) {
		t.Fatalf("Get over a broken conn = %v, want one transport error", err)
	}
	v, found, err := poolGet(pool, "k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get after the redial: %q %v %v", v, found, err)
	}
	// A request rejected before it formed never reaches the wire.
	if err := poolSet(pool, "bad key", []byte("v")); !errors.Is(err, errBadRequest) {
		t.Fatalf("invalid-key Set error = %v, want errBadRequest", err)
	}
}

// TestPoolAttemptConservesSlots drives Do through each of its outcomes
// on a one-slot pool and checks that the slot always comes back: the
// channel is full again and a follow-up op is served before a deadline,
// or, after a failed dial, answered at once with ErrNodeDown. A closed
// pool must instead answer the follow-up with ErrPoolClosed, fast, and
// never take a connection back in.
func TestPoolAttemptConservesSlots(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 16)
	set := func(c *Client) error { return c.Set("k", []byte("v")) }
	for _, tc := range []struct {
		name            string
		run             func(*Pool) error
		wantErr, closed bool
		followUp        error
	}{
		{name: "success", run: func(p *Pool) error { return p.Do(set) }},
		{name: "f fails after writing", wantErr: true, run: func(p *Pool) error {
			return p.Do(func(c *Client) error {
				if err := set(c); err != nil {
					return err
				}
				return errors.New("poisoned after the write")
			})
		}},
		{name: "pre-write dial failure", wantErr: true, followUp: ErrNodeDown, run: func(p *Pool) error {
			p.addr = "127.0.0.1:1"
			defer func() { p.addr = srv.Addr() }()
			return p.Do(set)
		}},
		{name: "closed pool", wantErr: true, closed: true, run: func(p *Pool) error {
			// Closed while the connection is checked out, so the first
			// hand-back must close it; then attempted again.
			if err := p.Do(func(*Client) error { return p.Close() }); err != nil {
				return err
			}
			return p.Do(set)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(srv.Addr(), 1)
			defer p.Close()
			err := tc.run(p)
			want, wantFollowUp := cap(p.conns), tc.followUp
			if tc.closed {
				want, wantFollowUp = 0, ErrPoolClosed
			}
			if len(p.conns) != want {
				t.Fatalf("%d slots in the pool, want %d", len(p.conns), want)
			}
			if (err != nil) != tc.wantErr || (tc.closed && !errors.Is(err, ErrPoolClosed)) {
				t.Fatalf("Do = %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- p.Do(set) }()
			select {
			case err := <-done:
				if !errors.Is(err, wantFollowUp) {
					t.Fatalf("follow-up op: %v, want %v", err, wantFollowUp)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("follow-up op blocked: Do leaked the slot")
			}
		})
	}
}
