package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/leakcheck"
	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// startTestNode boots a daemon with fast gossip, so a lost greeting or a
// dead peer is handled within test-friendly deadlines.
func startTestNode(t *testing.T, seeds ...string) *Node {
	t.Helper()
	return startGossipNode(t, 25*time.Millisecond, seeds...)
}

// startGossipNode boots a daemon that gossips every `every`; it is closed
// when tb ends.
func startGossipNode(tb testing.TB, every time.Duration, seeds ...string) *Node {
	tb.Helper()
	cfg := kvserver.DefaultConfig()
	cfg.Capacity = 1 << 12
	cfg.PoolSize = 2
	cfg.Timeout = 2 * time.Second
	n, err := StartNode(NodeOptions{
		Listen:      "127.0.0.1:0",
		Seeds:       seeds,
		Replicas:    2,
		Store:       cfg,
		GossipEvery: every,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		n.Close()
	})
	return n
}

// waitMembers polls until every node's member list has exactly want
// entries, failing the test after 10s.
func waitMembers(t *testing.T, want int, nodes ...*Node) {
	t.Helper()
	waitMembersWithin(t, 10*time.Second, want, nodes...)
}

// waitMembersWithin is waitMembers with the deadline given.
func waitMembersWithin(tb testing.TB, within time.Duration, want int, nodes ...*Node) {
	tb.Helper()
	deadline := time.Now().Add(within)
	for {
		converged := true
		for _, n := range nodes {
			if len(n.Members()) != want {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			lists := make([][]string, len(nodes))
			for i, n := range nodes {
				lists[i] = n.Members()
			}
			tb.Fatalf("membership did not converge to %d nodes within %v: %v", want, within, lists)
		}
		time.Sleep(time.Millisecond)
	}
}

// testClusterClient builds a client whose seeds are the given nodes.
func testClusterClient(t *testing.T, nodes ...*Node) *Client {
	t.Helper()
	seeds := make([]string, len(nodes))
	for i, n := range nodes {
		seeds[i] = n.Addr()
	}
	c, err := New(
		WithSeeds(seeds...),
		WithReplicas(2),
		WithPoolSize(2),
		WithTimeout(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
	})
	return c
}

// TestNodeGossipMembershipConverges joins four nodes as a chain, each
// through the one before it, so every node but the second learns most
// members from HELLO replies rather than from its seed. Membership must
// converge without a gossip tick: at a one-hour interval, every node lists
// all four members within 2s of the last StartNode.
func TestNodeGossipMembershipConverges(t *testing.T) {
	for _, every := range []time.Duration{25 * time.Millisecond, time.Hour} {
		t.Run(every.String(), func(t *testing.T) {
			leakcheck.Check(t)
			n1 := startGossipNode(t, every)
			n2 := startGossipNode(t, every, n1.Addr())
			n3 := startGossipNode(t, every, n2.Addr())
			n4 := startGossipNode(t, every, n3.Addr())
			waitMembersWithin(t, 2*time.Second, 4, n1, n2, n3, n4)
		})
	}
}

// BenchmarkNodeJoinConvergence forms three-node clusters the way the
// benchmark harness does (both joiners seeded with the first node, 100ms
// gossip) and reports the mean time from the third StartNode returning to
// every node listing all three members.
func BenchmarkNodeJoinConvergence(b *testing.B) {
	const every = 100 * time.Millisecond
	var wait time.Duration
	for i := 0; i < b.N; i++ {
		n1 := startGossipNode(b, every)
		n2 := startGossipNode(b, every, n1.Addr())
		n3 := startGossipNode(b, every, n1.Addr())
		start := time.Now()
		waitMembersWithin(b, 10*time.Second, 3, n1, n2, n3)
		wait += time.Since(start)
		for _, n := range []*Node{n3, n2, n1} {
			if err := n.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(wait.Microseconds())/1e3/float64(b.N), "converge-ms/op")
}

// TestNodeRejectsInvalidMemberFromReply points a node at a seed that
// answers every request with a NODES list holding an empty address. The
// reply must fail as a whole: an accepted "" would be dialled every round
// and listed in this node's own replies, spreading to every member.
func TestNodeRejectsInvalidMemberFromReply(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seed := ln.Addr().String()
	reply := "NODES 2\r\n" + seed + "\r\n\r\n"
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The peer hung up or the test ended.
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					if _, err := io.WriteString(conn, reply); err != nil {
						return
					}
				}
			}()
		}
	}()

	n := startTestNode(t, seed)
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if members := n.Members(); slices.Contains(members, "") {
			t.Fatalf("Members() = %q: a NODES reply planted an empty address", members)
		}
	}
}

func TestReplicatedSetReadableFromEveryOwner(t *testing.T) {
	leakcheck.Check(t)
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr())
	waitMembers(t, 3, n1, n2, n3)

	byAddr := map[string]*Node{n1.Addr(): n1, n2.Addr(): n2, n3.Addr(): n3}
	c := testClusterClient(t, n1, n2, n3)

	for id := 0; id < 64; id++ {
		payload := []byte(fmt.Sprintf("v%d", id))
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
		owners := n1.Ring().Owners(id, 2)
		if len(owners) != 2 {
			t.Fatalf("Owners(%d) = %v, want 2", id, owners)
		}
		// The STORED reply means the fan-out already happened: the value
		// must be on every owner's local store right now, no polling.
		for _, owner := range owners {
			node, ok := byAddr[owner]
			if !ok {
				t.Fatalf("owner %q is not a known node", owner)
			}
			if _, ok := node.Server().Peek(key(id)); !ok {
				t.Fatalf("key %d missing from owner %s immediately after STORED", id, owner)
			}
		}
	}
}

func TestJoinMigrationKeepsEveryKeyReadable(t *testing.T) {
	leakcheck.Check(t)
	const keys = 200
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	waitMembers(t, 2, n1, n2)

	c := testClusterClient(t, n1, n2)
	payload := []byte("migrate-me")
	for id := 0; id < keys; id++ {
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
	}

	// readAll asserts every key is readable — no NOT_FOUND window allowed.
	readAll := func(phase string) {
		for id := 0; id < keys; id++ {
			v, found, err := c.Get(id)
			if err != nil {
				t.Fatalf("%s: Get(%d) errored: %v", phase, id, err)
			}
			if !found {
				t.Fatalf("%s: Get(%d) returned NOT_FOUND — migration opened a miss window", phase, id)
			}
			if string(v) != string(payload) {
				t.Fatalf("%s: Get(%d) = %q", phase, id, v)
			}
		}
	}
	readAll("before join")

	// Third node joins; keep reading the whole keyspace while gossip and
	// the rebalance race the reads.
	n3 := startTestNode(t, n1.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for {
		readAll("during join")
		if len(n1.Members()) == 3 && len(n2.Members()) == 3 && len(n3.Members()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: %v %v %v", n1.Members(), n2.Members(), n3.Members())
		}
	}
	// Let at least one full rebalance land, then verify the new owner set
	// actually serves every key (reads keep passing after the old copies
	// would stop mattering), through the old client and through one that
	// routes to the joiner too.
	time.Sleep(100 * time.Millisecond)
	readAll("after join")
	c = testClusterClient(t, n1, n2, n3)
	readAll("after join, all three seeds")
}

// TestKillNodeMidRunStaticSeeds runs the kill-a-node fault schedule (see
// runKillSchedule) through the client the train_remote and cluster_rw
// benchmarks build: every node a seed, replicas 2, every other setting at
// its default. The dead node stays on the client's ring for good, so its
// breaker is what routes around it, and must read open at the end.
func TestKillNodeMidRunStaticSeeds(t *testing.T) {
	leakcheck.Check(t)
	n1, n2, n3 := startKillCluster(t)
	reg := telemetry.NewRegistry()
	c, err := New(WithSeeds(n1.Addr(), n2.Addr(), n3.Addr()), WithReplicas(2), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
	})
	runKillSchedule(t, c, n1, n2, n3)
	if s := breakerGauge(reg, n3.Addr()); s != breakerOpen {
		t.Fatalf("dead node's breaker = %v, want open", s)
	}
}

// startKillCluster boots the three daemons of the kill schedule and waits
// for their membership to converge.
func startKillCluster(t *testing.T) (n1, n2, n3 *Node) {
	t.Helper()
	n1 = startTestNode(t)
	n2 = startTestNode(t, n1.Addr())
	n3 = startTestNode(t, n1.Addr())
	waitMembers(t, 3, n1, n2, n3)
	return n1, n2, n3
}

// runKillSchedule runs the kill-a-node fault schedule on c: three daemons
// at replicas 2, four goroutines running mixed Set/Get over 2 000 ids for
// about a second, and n3 closed in the middle of it. Synchronous
// replication and breaker-gated failover must absorb the death: no op may
// return an error, every hit must carry exactly its id's payload, and
// once the survivors have expelled n3, every id acknowledged before
// the kill must still be found. After the kill, Sets go to the upper half
// of the ids only, so the lower half keeps what the kill left: a later Set
// would write an id to the survivors anyway and hide a lost write.
func runKillSchedule(t *testing.T, c *Client, n1, n2, n3 *Node) {
	t.Helper()
	const (
		ids     = 2000
		workers = 4
		run     = time.Second
	)
	payload := func(id int) []byte {
		return bytes.Repeat([]byte(strconv.Itoa(id)+";"), 1+id%32)
	}

	var (
		killing     atomic.Bool
		ackedBefore [ids]atomic.Bool // a Set returned nil before the kill began
		setAfter    [ids]atomic.Bool // a Set returned after the kill began
		wg          sync.WaitGroup
	)
	errs := make(chan error, workers)
	stop := time.Now().Add(run)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *xrand.Rand) {
			defer wg.Done()
			for time.Now().Before(stop) {
				id := rng.Intn(ids)
				if rng.Intn(2) == 0 {
					if killing.Load() {
						id = ids/2 + id/2
					}
					err := c.Set(id, payload(id))
					if killing.Load() {
						setAfter[id].Store(true)
					} else if err == nil {
						ackedBefore[id].Store(true)
					}
					if err != nil {
						errs <- fmt.Errorf("Set(%d): %w", id, err)
						return
					}
					continue
				}
				v, found, err := c.Get(id)
				if err != nil {
					errs <- fmt.Errorf("Get(%d): %w", id, err)
					return
				}
				if found && !bytes.Equal(v, payload(id)) {
					errs <- fmt.Errorf("Get(%d) = %q, want %q", id, v, payload(id))
					return
				}
			}
		}(xrand.New(uint64(w + 1)))
	}
	time.Sleep(run / 2)
	killing.Store(true)
	if err := n3.Close(); err != nil {
		t.Errorf("closing n3: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error("client-visible error:", err)
	}

	waitMembers(t, 2, n1, n2)
	acked := 0
	for id := range ackedBefore {
		if !ackedBefore[id].Load() || setAfter[id].Load() {
			continue
		}
		acked++
		v, found, err := c.Get(id)
		if err != nil || !found || !bytes.Equal(v, payload(id)) {
			t.Fatalf("Get(%d) after the kill = %q, %v, %v; acknowledged before it", id, v, found, err)
		}
	}
	if acked == 0 {
		t.Fatal("no id was acknowledged before the kill and left alone after it")
	}
	t.Logf("%d ids acknowledged before the kill, all found after it", acked)
}

func TestNodeDeathExpelledAndKeysSurvive(t *testing.T) {
	leakcheck.Check(t)
	const keys = 200
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr())
	waitMembers(t, 3, n1, n2, n3)

	c := testClusterClient(t, n1, n2, n3)
	payload := []byte("survive-me")
	for id := 0; id < keys; id++ {
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
	}

	// Kill one node. Replicas=2 means every key has a surviving owner.
	if err := n3.Close(); err != nil {
		t.Fatalf("closing n3: %v", err)
	}
	waitMembers(t, 2, n1, n2)
	for id := 0; id < keys; id++ {
		v, found, err := c.Get(id)
		if err != nil {
			t.Fatalf("Get(%d) after node death errored: %v", id, err)
		}
		if !found || string(v) != string(payload) {
			t.Fatalf("Get(%d) after node death = %q, found=%v — replication lost the key", id, v, found)
		}
	}
}
