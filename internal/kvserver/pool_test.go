package kvserver

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"spidercache/internal/leakcheck"
)

func TestPoolBasicOps(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 64)
	pool := NewPool(srv.Addr(), Config{PoolSize: 2})
	defer pool.Close()

	if err := pool.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, found, err := pool.Get("k")
	if err != nil || !found || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get: %q %v %v", v, found, err)
	}
	if err := pool.MSet([]string{"a", "b"}, [][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	vs, fs, err := pool.MGet("a", "b", "nope")
	if err != nil || !fs[0] || !fs[1] || fs[2] {
		t.Fatalf("MGet: %v %v %v", vs, fs, err)
	}
	if found, err := pool.Del("k"); err != nil || !found {
		t.Fatalf("Del: %v %v", found, err)
	}
}

func TestPoolConcurrent(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 4096)
	pool := NewPool(srv.Addr(), Config{PoolSize: 4})
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
				if err := pool.Set(key, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
				v, found, err := pool.Get(key)
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
	pool := NewPool(srv.Addr(), Config{PoolSize: 1})
	defer pool.Close()

	// Break the pooled connection from inside a Do: close the raw conn so
	// the op fails and Do discards it.
	_ = pool.Do(func(c *Client) error {
		c.conn.Close()
		return fmt.Errorf("poisoned")
	})
	// The single slot must redial transparently.
	if err := pool.Set("k", []byte("v")); err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
	v, found, err := pool.Get("k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("after recovery: %q %v %v", v, found, err)
	}
}

func TestPoolPipeline(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 64)
	pool := NewPool(srv.Addr(), Config{PoolSize: 2})
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
	pool := NewPool(srv.Addr(), Config{PoolSize: 2})
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

func TestPoolDeadlines(t *testing.T) {
	leakcheck.Check(t)
	srv := startServer(t, 64)
	pool := NewPool(srv.Addr(), Config{PoolSize: 1, Timeout: time.Second})
	defer pool.Close()
	// Deadlines are re-armed per op: two ops with a pause between them must
	// both succeed even with a short window relative to total test time.
	if err := pool.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, _, err := pool.Get("k"); err != nil {
		t.Fatal(err)
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
