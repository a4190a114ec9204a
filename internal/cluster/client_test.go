package cluster

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
	"spidercache/internal/telemetry"
)

// startNode serves a standalone kvserver on a loopback port, closed at
// cleanup.
func startNode(t *testing.T) *kvserver.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvserver.Serve(ln, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
	})
	return srv
}

// stored reads keys from the node at addr over the wire, on a connection
// of its own, and returns the ones it holds with their values.
func stored(t *testing.T, addr string, keys ...string) map[string][]byte {
	t.Helper()
	kc, err := kvserver.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	out := make(map[string][]byte)
	for _, k := range keys {
		v, ok, err := kc.Get(k)
		if err != nil {
			t.Fatalf("GET %s from %s: %v", k, addr, err)
		}
		if ok {
			out[k] = v
		}
	}
	return out
}

// newTestClient builds a static client over nodes with one connection per
// node.
func newTestClient(t *testing.T, reg *telemetry.Registry, nodes ...string) *Client {
	t.Helper()
	c, err := New(
		WithSeeds(nodes...),
		WithPoolSize(1),
		WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
	})
	return c
}

// probe runs one GET through node's pool: nil from a live node, and
// kvserver.ErrNodeDown, without a dial, from a node whose last dial was
// refused within the pool's backoff.
func probe(c *Client, node string) error {
	return c.pools[node].Do(func(kc *kvserver.Client) error {
		_, _, err := kc.Get("probe")
		return err
	})
}

func TestClientBasicOps(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	reg := telemetry.NewRegistry()
	c := newTestClient(t, reg, a.Addr(), b.Addr())

	for id := 0; id < 64; id++ {
		payload := []byte{byte(id), byte(id >> 8), 0xCC}
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
		got, found, err := c.Get(id)
		if err != nil || !found {
			t.Fatalf("Get(%d): found=%v err=%v", id, found, err)
		}
		if len(got) != 3 || got[0] != byte(id) {
			t.Fatalf("Get(%d) returned wrong payload %v", id, got)
		}
	}
	if _, found, err := c.Get(100000); err != nil || found {
		t.Fatalf("Get(absent): found=%v err=%v, want clean miss", found, err)
	}

	// Keys actually spread over both nodes.
	keys := make([]string, 64)
	for id := range keys {
		keys[id] = key(id)
	}
	itemsA := len(stored(t, a.Addr(), keys...))
	itemsB := len(stored(t, b.Addr(), keys...))
	if itemsA == 0 || itemsB == 0 {
		t.Fatalf("placement did not spread: node items %d/%d", itemsA, itemsB)
	}
	// Healthy nodes are routed around by no op.
	for _, node := range []string{a.Addr(), b.Addr()} {
		if err := probe(c, node); err != nil {
			t.Fatalf("healthy node %s: %v", node, err)
		}
	}
	for _, result := range []string{"rerouted", "exhausted"} {
		if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": result}).Value(); v != 0 {
			t.Fatalf("kv_failover_total{result=%s} = %d with every node up, want 0", result, v)
		}
	}
}

// TestNewClientStillServes: a client built from a seed list serves
// Set/Get and keeps exactly the seeds as its nodes.
func TestNewClientStillServes(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	c := newTestClient(t, nil, a.Addr(), b.Addr())

	for id := 0; id < 32; id++ {
		if err := c.Set(id, []byte{byte(id)}); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
		v, found, err := c.Get(id)
		if err != nil || !found || v[0] != byte(id) {
			t.Fatalf("Get(%d) = %v, %v, %v", id, v, found, err)
		}
	}
	// The node set is the seeds, fixed.
	if len(c.nodes) != 2 || len(c.pools) != 2 {
		t.Fatalf("static client nodes = %v", c.nodes)
	}
}

// TestSetOppositeOwnerOrders: eight goroutines share a client with one
// connection per node and write ids placed on the two nodes in both
// orders, (a, b) and (b, a). A Set holds one owner's connection while it
// takes the other's, so Sets that took them in placement order would
// deadlock; every Set must return within the deadline, and every id must
// then be on both nodes.
func TestSetOppositeOwnerOrders(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	c := newTestClient(t, nil, a.Addr(), b.Addr())
	var ab, ba []int
	for id := 0; len(ab) < 8 || len(ba) < 8; id++ {
		if owner(c.ring, id) == a.Addr() {
			ab = append(ab, id)
		} else {
			ba = append(ba, id)
		}
	}
	ids := append(ab[:8:8], ba[:8]...)

	const workers, rounds = 8, 50
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Alternate the two orders within each goroutine too.
				id := ids[(w+i)%len(ids)]
				if err := c.Set(id, []byte{byte(id)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		c.Close() // wakes the blocked Sets, so the goroutines end
		<-done
		t.Fatal("Sets did not finish within 3s: connections taken in opposite orders deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = key(id)
	}
	for _, srv := range []*kvserver.Server{a, b} {
		got := stored(t, srv.Addr(), keys...)
		for _, id := range ids {
			if v, ok := got[key(id)]; !ok || !bytes.Equal(v, []byte{byte(id)}) {
				t.Fatalf("id %d on %s = %v, %v; want it on both owners", id, srv.Addr(), v, ok)
			}
		}
	}
}

func TestClientFailsOverAroundDeadNode(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	reg := telemetry.NewRegistry()
	c := newTestClient(t, reg, a.Addr(), b.Addr())

	// Seed values while both nodes are up.
	const n = 32
	for id := 0; id < n; id++ {
		if err := c.Set(id, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Kill node b. Every op must still succeed: ids owned by b fail over
	// to a (reads of b-owned values miss — the replica never had them —
	// but reads must not error).
	// Shutting the node down is the point.
	b.Close()
	for id := n; id < 5*n; id++ {
		if err := c.Set(id, []byte("w")); err != nil {
			t.Fatalf("Set(%d) with one node down: %v", id, err)
		}
		if _, _, err := c.Get(id); err != nil {
			t.Fatalf("Get(%d) with one node down: %v", id, err)
		}
	}

	// The dead node's pool fails fast, the live one serves, and failovers
	// were counted.
	if err := probe(c, b.Addr()); !errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("dead node: %v, want kvserver.ErrNodeDown", err)
	}
	if err := probe(c, a.Addr()); err != nil {
		t.Fatalf("live node: %v", err)
	}
	if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": "rerouted"}).Value(); v == 0 {
		t.Fatal("kv_failover_total{result=rerouted} = 0, want > 0")
	}
	if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}).Value(); v != 0 {
		t.Fatalf("kv_failover_total{result=exhausted} = %d, want 0 (one replica stayed up)", v)
	}
}

// TestSetReroutedWhenPrimaryDown: kv_failover_total{result="rerouted"}
// counts Sets, not only Gets. A Set whose primary owner is down and whose
// replica stores it counts one reroute; a Set whose primary stores it
// counts none, though its replica is down too.
func TestSetReroutedWhenPrimaryDown(t *testing.T) {
	leakcheck.Check(t)
	a, b := startNode(t), startNode(t)
	reg := telemetry.NewRegistry()
	c := newTestClient(t, reg, a.Addr(), b.Addr())
	rerouted := reg.Counter("kv_failover_total", telemetry.Labels{"result": "rerouted"})
	primaryOn := func(node string) int {
		id := 0
		for c.ring.OwnersKey(key(id), c.replicas)[0] != node {
			id++
		}
		return id
	}
	onA, onB := primaryOn(a.Addr()), primaryOn(b.Addr())

	// Shutting the node down is the point.
	b.Close()
	if err := c.Set(onA, []byte("v")); err != nil {
		t.Fatalf("Set(%d), primary up: %v", onA, err)
	}
	if v := rerouted.Value(); v != 0 {
		t.Fatalf("after a Set its primary stored: rerouted = %d, want 0", v)
	}
	if err := c.Set(onB, []byte("v")); err != nil {
		t.Fatalf("Set(%d), primary down: %v", onB, err)
	}
	if v := rerouted.Value(); v != 1 {
		t.Fatalf("after a Set only its replica stored: rerouted = %d, want 1", v)
	}
}

func TestClientAllNodesDown(t *testing.T) {
	leakcheck.Check(t)
	reg := telemetry.NewRegistry()
	// Ports from the TCP reserved range: nothing listens there.
	c := newTestClient(t, reg, "127.0.0.1:1", "127.0.0.1:2")

	if err := c.Set(1, []byte("v")); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Set with cluster down: %v, want ErrNoNodes", err)
	}
	if _, _, err := c.Get(1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Get with cluster down: %v, want ErrNoNodes", err)
	}
	if v := reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}).Value(); v == 0 {
		t.Fatal("kv_failover_total{result=exhausted} = 0, want > 0")
	}

	// Once every node refused a dial, ops keep failing fast (ErrNoNodes
	// wrapping ErrNodeDown: no dial, not a hang).
	start := time.Now()
	if _, _, err := c.Get(2); !errors.Is(err, ErrNoNodes) || !errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("Get after every dial was refused: %v, want ErrNoNodes wrapping kvserver.ErrNodeDown", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Get while every pool backs off took %v, want fast-fail", d)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("New without seeds succeeded")
	}
	if _, err := New(WithSeeds("n1", "n1")); err == nil {
		t.Fatal("New with duplicate seeds succeeded")
	}
}

func TestNewOptionValidation(t *testing.T) {
	leakcheck.Check(t)
	cases := map[string][]Option{
		"no seeds":           {},
		"empty WithSeeds":    {WithSeeds()},
		"bad replicas":       {WithSeeds("x:1"), WithReplicas(0)},
		"bad pool size":      {WithSeeds("x:1"), WithPoolSize(0)},
		"duplicate seeds":    {WithSeeds("x:1", "x:1")},
		"first error sticks": {WithReplicas(-1), WithSeeds()},
	}
	for name, opts := range cases {
		if c, err := New(opts...); err == nil {
			// The test is about construction, not teardown.
			c.Close()
			t.Fatalf("New(%s) did not error", name)
		}
	}
}

// TestNewAppliesOptions: every option lands, and without options New has
// the defaults the trainer's remote path relies on, a pool per node that
// serves among them.
func TestNewAppliesOptions(t *testing.T) {
	leakcheck.Check(t)
	srv := startNode(t)
	c, err := New(WithSeeds(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	pool := c.pools[srv.Addr()]
	if c.replicas != 2 || len(c.ring.circle) != ringPoints {
		t.Fatalf("defaults: replicas %d, ring points %d", c.replicas, len(c.ring.circle))
	}
	if pool == nil {
		t.Fatalf("node %s has no pool", srv.Addr())
	}
	if err := probe(c, srv.Addr()); err != nil {
		t.Fatalf("node %s: %v", srv.Addr(), err)
	}
	checkPoolSize(t, pool, 2)
	c.Close()

	c, err = New(
		WithSeeds(srv.Addr()),
		WithReplicas(3),
		WithPoolSize(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.replicas != 3 {
		t.Fatalf("options not applied: replicas %d", c.replicas)
	}
	checkPoolSize(t, c.pools[srv.Addr()], 5)
}

// checkPoolSize checks that pool runs size ops at once, and not one more:
// it starts size+1 ops that each hold their connection, waits for size of
// them to get one, and fails if the last gets one within 50 ms.
func checkPoolSize(t *testing.T, pool *kvserver.Pool, size int) {
	t.Helper()
	entered := make(chan struct{}, size+1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i <= size; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := pool.Do(func(*kvserver.Client) error {
				entered <- struct{}{}
				<-release
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	defer wg.Wait()
	defer close(release)
	for i := 0; i < size; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("pool ran %d ops at once, want %d", i, size)
		}
	}
	select {
	case <-entered:
		t.Fatalf("pool ran %d ops at once, want %d", size+1, size)
	case <-time.After(50 * time.Millisecond):
	}
}
