package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spidercache/internal/leakcheck"
)

// poolGet is Client.Get through Pool.Do.
func poolGet(p *Pool, key string) (value []byte, found bool, err error) {
	err = p.Do(func(c *Client) (err error) {
		value, found, err = c.Get(key)
		return err
	})
	return value, found, err
}

// poolSet is Client.Set through Pool.Do.
func poolSet(p *Pool, key string, value []byte) error {
	return p.Do(func(c *Client) error { return c.Set(key, value) })
}

func TestPoolBasicOps(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 64)
	pool := NewPool(srv.Addr(), 2)
	defer pool.Close()

	if err := poolSet(pool, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := poolGet(pool, "k")
	if err != nil || !found || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get: %q %v %v", v, found, err)
	}
	var rs []Result
	err = pool.Do(func(c *Client) (err error) {
		p := c.Pipeline()
		p.Set("a", []byte{1})
		p.Set("b", []byte{2})
		p.Get("a")
		p.Get("b")
		p.Get("nope")
		rs, err = p.Exec()
		return err
	})
	if err != nil || !rs[2].Found || !rs[3].Found || rs[4].Found {
		t.Fatalf("pipelined Gets: %+v %v", rs, err)
	}
}

func TestPoolConcurrent(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 4096)
	pool := NewPool(srv.Addr(), 4)
	defer pool.Close()

	const goroutines = 16 // 4x oversubscribed: exercises acquire blocking
	const ops = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := poolSet(pool, key, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
				v, found, err := poolGet(pool, key)
				if err != nil || !found || !bytes.Equal(v, []byte{byte(i)}) {
					errs <- fmt.Errorf("g%d op%d: found=%v err=%v", g, i, found, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolRecoversFromBrokenConn: an op error discards the connection and
// the slot redials lazily, so the pool keeps working at full size.
func TestPoolRecoversFromBrokenConn(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 64)
	pool := NewPool(srv.Addr(), 1)
	defer pool.Close()

	// Break the pooled connection from inside a Do: close the raw conn so
	// the op fails and Do discards it.
	_ = pool.Do(func(c *Client) error {
		c.conn.Close()
		return fmt.Errorf("poisoned")
	})
	// The single slot must redial transparently.
	if err := poolSet(pool, "k", []byte("v")); err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	v, found, err := poolGet(pool, "k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("after recovery: %q %v %v", v, found, err)
	}
}

// countingListener counts the connections its server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestPoolNodeRestart: a node closed under a pool costs it one failed
// dial, after which ops fail at once with ErrNodeDown; once the backoff
// ends the pool dials again, and a refused dial starts a new backoff. A
// server restarted on the same address is not dialled before that backoff
// ends and is reached after it.
func TestPoolNodeRestart(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 16)
	addr := srv.Addr()
	pool := NewPool(addr, 1)
	defer pool.Close()
	if err := poolSet(pool, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Shutting the node down is the point.
	srv.Close()
	// The pooled connection breaks: one transport error, slot discarded.
	if _, _, err := poolGet(pool, "k"); err == nil || errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get over the closed node's connection = %v, want a transport error", err)
	}
	// refused runs one op that must dial and be refused, and returns when.
	refused := func() time.Time {
		t.Helper()
		if _, _, err := poolGet(pool, "k"); err == nil || errors.Is(err, ErrNodeDown) {
			t.Fatalf("redial to the closed node = %v, want a refused dial", err)
		}
		return time.Now()
	}
	// downFor checks that an op fails at once with ErrNodeDown.
	downFor := func(since time.Time) {
		t.Helper()
		if _, _, err := poolGet(pool, "k"); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("Get %v after a refused dial = %v, want ErrNodeDown", time.Since(since), err)
		}
	}
	failed := refused()
	downFor(failed)
	time.Sleep(time.Until(failed.Add(redialBackoff)))
	failed = refused() // the backoff ended, so the pool dials again
	downFor(failed)

	// Restart the node on the same address.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	srv, err = Serve(counted, 16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	downFor(failed)
	if n := counted.accepted.Load(); n != 0 {
		t.Fatalf("restarted node accepted %d connections within the backoff, want 0", n)
	}
	time.Sleep(time.Until(failed.Add(redialBackoff)))
	if err := poolSet(pool, "k", []byte("w")); err != nil {
		t.Fatalf("Set after the backoff: %v", err)
	}
	if n := counted.accepted.Load(); n != 1 {
		t.Fatalf("restarted node accepted %d connections, want 1", n)
	}
}

func TestPoolPipeline(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 64)
	pool := NewPool(srv.Addr(), 2)
	defer pool.Close()

	err := pool.Do(func(c *Client) error {
		p := c.Pipeline()
		p.Set("p1", []byte("a"))
		p.Set("p2", []byte("b"))
		p.Get("p1")
		results, err := p.Exec()
		if err != nil {
			return err
		}
		if !results[2].Found || string(results[2].Value) != "a" {
			return fmt.Errorf("pipeline over pool: %+v", results[2])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoolClose(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 4)
	pool := NewPool(srv.Addr(), 2)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := pool.acquire(); err == nil {
		t.Fatal("acquire succeeded on closed pool")
	}
}

// TestReadTimeout: a deadline-configured client times out reading from a
// server that never replies, instead of blocking forever.
func TestReadTimeout(t *testing.T) {
	leakcheck.Check(t)
	// A listener that accepts and then stays silent.
	srv := startServer(t, 4)
	c, err := Dial(srv.Addr(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	// Bypass the protocol: send a frame the server will wait on (declared
	// payload never arrives), so no reply ever comes back.
	fmt.Fprintf(c.w, "SET k 10\r\n")
	c.flush()
	done := make(chan error, 1)
	go func() {
		_, err := c.readLine()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned without error from a silent server")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReadTimeout not applied; read blocked")
	}
}
