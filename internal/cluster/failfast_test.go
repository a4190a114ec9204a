package cluster

// The client's per-node fail-fast cycle. The client holds no breaker of
// its own: a node's kvserver.Pool fails its ops with kvserver.ErrNodeDown,
// without dialling, for a backoff after a refused dial, then dials again.
// These tests keep the breaker's old names for the properties it stood
// for, checked through the client's pools.

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
)

// nodeBackoff is how long a node's pool fails fast after a refused dial
// (kvserver's redialBackoff).
const nodeBackoff = 500 * time.Millisecond

// acceptCounter counts the connections its server accepts.
type acceptCounter struct {
	net.Listener
	accepted atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// restartNode serves a kvserver again on addr, closed at cleanup, and
// returns its accept count.
func restartNode(t *testing.T, addr string) *acceptCounter {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	counted := &acceptCounter{Listener: ln}
	srv, err := kvserver.Serve(counted, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
	})
	return counted
}

// refusedProbe runs one probe of node that must dial and be refused (an
// error that is not ErrNodeDown), and returns when it came back.
func refusedProbe(t *testing.T, c *Client, node string) time.Time {
	t.Helper()
	if err := probe(c, node); err == nil || errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("probe of %s = %v, want a refused dial", node, err)
	}
	return time.Now()
}

// downProbe checks that a probe of node fails at once with ErrNodeDown.
func downProbe(t *testing.T, c *Client, node string, since time.Time) {
	t.Helper()
	if err := probe(c, node); !errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("probe of %s %v after a refused dial = %v, want kvserver.ErrNodeDown", node, time.Since(since), err)
	}
}

// TestBreakerFullCycle: a live node serves; once it dies, its broken
// connection and then one refused dial make its ops fail fast with
// kvserver.ErrNodeDown; a node restarted on the same address is not
// dialled before the backoff ends and serves the client again after it;
// and an op failing on a live connection starts no backoff.
func TestBreakerFullCycle(t *testing.T) {
	leakcheck.Check(t)
	srv := startNode(t)
	addr := srv.Addr()
	c := newTestClient(t, nil, addr)
	if err := c.Set(1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := probe(c, addr); err != nil {
		t.Fatalf("live node: %v", err)
	}

	// Shutting the node down is the point.
	srv.Close()
	// The pooled connection breaks: the Get fails, and not by fast fail.
	if _, _, err := c.Get(1); !errors.Is(err, ErrNoNodes) || errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("Get over the dead node's connection = %v, want ErrNoNodes from a transport error", err)
	}
	failed := refusedProbe(t, c, addr)
	downProbe(t, c, addr, failed)
	if _, _, err := c.Get(1); !errors.Is(err, ErrNoNodes) || !errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("Get while the node's pool backs off = %v, want ErrNoNodes wrapping kvserver.ErrNodeDown", err)
	}

	counted := restartNode(t, addr)
	downProbe(t, c, addr, failed)
	if n := counted.accepted.Load(); n != 0 {
		t.Fatalf("restarted node accepted %d connections within the backoff, want 0", n)
	}
	time.Sleep(time.Until(failed.Add(nodeBackoff)))
	if err := c.Set(2, []byte("w")); err != nil {
		t.Fatalf("Set after the backoff: %v", err)
	}
	if got, found, err := c.Get(2); err != nil || !found || string(got) != "w" {
		t.Fatalf("Get after the backoff = %q, %v, %v; want w", got, found, err)
	}
	if n := counted.accepted.Load(); n != 1 {
		t.Fatalf("restarted node accepted %d connections, want 1", n)
	}

	// An op that fails on a live connection retires the connection; the
	// next op redials at once.
	odd := errors.New("kvserver: GET failed: odd reply")
	if err := c.pools[addr].Do(func(*kvserver.Client) error { return odd }); !errors.Is(err, odd) {
		t.Fatalf("failing op = %v, want its own error", err)
	}
	if err := probe(c, addr); err != nil {
		t.Fatalf("probe after one failed op: %v, want served", err)
	}
	if n := counted.accepted.Load(); n != 2 {
		t.Fatalf("restarted node accepted %d connections, want 2 (one redial)", n)
	}
}

// TestBreakerHalfOpenFailureReopens: once the backoff ends the pool dials
// its node once more, and a refused retry starts a new backoff timed from
// that refusal, not from the first.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	leakcheck.Check(t)
	// A port from the TCP reserved range: nothing listens there.
	const node = "127.0.0.1:1"
	c := newTestClient(t, nil, node)

	first := refusedProbe(t, c, node)
	downProbe(t, c, node, first)
	time.Sleep(time.Until(first.Add(nodeBackoff)))
	second := refusedProbe(t, c, node) // the retry is sent
	downProbe(t, c, node, second)
	// Halfway through the new backoff the first one has long ended.
	time.Sleep(time.Until(second.Add(nodeBackoff / 2)))
	downProbe(t, c, node, second)
	time.Sleep(time.Until(second.Add(nodeBackoff)))
	refusedProbe(t, c, node)
}

// TestReplicaBreakerFailsFast: while a dead node's pool backs off, an op
// on it fails with kvserver.ErrNodeDown without running at all, and the
// client's reads and writes route around it. Errors the node did not
// cause, such as an odd reply from a live node, start no backoff.
func TestReplicaBreakerFailsFast(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	c := newTestClient(t, nil, a.Addr(), b.Addr())
	ran := 0
	get := func(kc *kvserver.Client) error {
		ran++
		_, _, err := kc.Get("k")
		return err
	}

	for i := 0; i < 16; i++ {
		c.pools[b.Addr()].Do(func(*kvserver.Client) error {
			ran++
			return errors.New("kvserver: GET failed: odd reply")
		})
	}
	if err := c.pools[b.Addr()].Do(get); err != nil || ran != 17 {
		t.Fatalf("op after odd replies = %v, ran %d times of 17; want served", err, ran)
	}

	// Shutting the node down is the point.
	b.Close()
	// The broken connection and the refused redial both run into the node.
	for i := 0; i < 2; i++ {
		if err := c.pools[b.Addr()].Do(get); err == nil || errors.Is(err, kvserver.ErrNodeDown) {
			t.Fatalf("op %d on the dead node = %v, want a transport error", i, err)
		}
	}
	before := ran
	for i := 0; i < 8; i++ {
		if err := c.pools[b.Addr()].Do(get); !errors.Is(err, kvserver.ErrNodeDown) || ran != before {
			t.Fatalf("op while backing off = %v, ran %d times; want kvserver.ErrNodeDown without running", err, ran-before)
		}
	}
	for id := 0; id < 32; id++ {
		if err := c.Set(id, []byte("v")); err != nil {
			t.Fatalf("Set(%d) with one node down: %v", id, err)
		}
		if _, found, err := c.Get(id); err != nil || !found {
			t.Fatalf("Get(%d) with one node down: found=%v err=%v", id, found, err)
		}
	}
}
