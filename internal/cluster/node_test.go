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
	n, err := StartNode(NodeOptions{
		Listen:      "127.0.0.1:0",
		Seeds:       seeds,
		Replicas:    2,
		Capacity:    1 << 12,
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
			if len(n.Nodes()) != want {
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
				lists[i] = n.Nodes()
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

// TestNodesSorted: the member list a node answers NODES and HELLO with is
// sorted, itself included, whatever order it learned its peers in.
func TestNodesSorted(t *testing.T) {
	n := &Node{self: "b", peers: map[string]*kvserver.Pool{"c": nil, "a": nil}}
	if got := fmt.Sprint(n.Nodes()); got != "[a b c]" {
		t.Fatalf("Nodes() = %v", got)
	}
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
		if members := n.Nodes(); slices.Contains(members, "") {
			t.Fatalf("Nodes() = %q: a NODES reply planted an empty address", members)
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
		addrs := owners(n1.ring, id, 2)
		if len(addrs) != 2 {
			t.Fatalf("owners of %d = %v, want 2", id, addrs)
		}
		// Set returns once every owner answered: the value must be on
		// every owner's local store right now, no polling.
		for _, addr := range addrs {
			node, ok := byAddr[addr]
			if !ok {
				t.Fatalf("owner %q is not a known node", addr)
			}
			if _, ok := node.Server().Peek(key(id)); !ok {
				t.Fatalf("key %d missing from owner %s as Set returned", id, addr)
			}
		}
	}
}

// TestDaemonSetIsNotFannedOut: a SET sent straight to one daemon is stored
// there and nowhere else. The key's other owner does not have it: a daemon
// forwards no write, the client replicates.
func TestDaemonSetIsNotFannedOut(t *testing.T) {
	leakcheck.Check(t)
	regs := make([]*telemetry.Registry, 2)
	nodes := make([]*Node, 2)
	for i := range nodes {
		regs[i] = telemetry.NewRegistry()
		var seeds []string
		if i > 0 {
			seeds = []string{nodes[0].Addr()}
		}
		n, err := StartNode(NodeOptions{
			Listen: "127.0.0.1:0", Seeds: seeds, Replicas: 2, Capacity: 64,
			GossipEvery: time.Hour, Registry: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			n.Close()
		})
		nodes[i] = n
	}
	waitMembers(t, 2, nodes...)
	// Each node's one join kicks one rebalance round; let both finish on
	// the empty stores, so no round can push the key below. A round ticks
	// the counter just before it scans the store, so a short margin
	// covers the scan of nothing.
	deadline := time.Now().Add(10 * time.Second)
	for _, reg := range regs {
		for reg.Counter("kv_migration_rounds_total", nil).Value() < 1 {
			if time.Now().After(deadline) {
				t.Fatal("no rebalance round ran after the join")
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)

	k := key(7)
	if owners := nodes[0].ring.OwnersKey(k, 2); len(owners) != 2 {
		t.Fatalf("owners of %s = %v, want both nodes", k, owners)
	}
	c, err := kvserver.Dial(nodes[0].Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := nodes[0].Server().Peek(k); !ok {
		t.Fatalf("%s missing from the daemon it was sent to", k)
	}
	other, err := kvserver.Dial(nodes[1].Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if v, found, err := other.Get(k); err != nil || found {
		t.Fatalf("Get(%s) from the other owner = %q, %v, %v; want a miss", k, v, found, err)
	}
}

// TestMembershipAndMigrationTelemetry reads a node's four families in the
// scenario each describes. Three daemons gossip hourly, so after their
// joins every round is one the test runs. A third node joining two that
// hold keys gives some keys a new owner, which the old owners push to it
// (kv_migration_keys_total{result="ok"}); then every node knows 3 members
// (cluster_members) and has seen 2 joins (cluster_membership_total). When
// the third closes and the survivors' rounds expel it, each survivor knows
// 2 members, has counted a leave, and its joins less its leaves are the
// one peer it keeps.
func TestMembershipAndMigrationTelemetry(t *testing.T) {
	leakcheck.Check(t)
	regs := make([]*telemetry.Registry, 3)
	nodes := make([]*Node, 3)
	start := func(i int) {
		regs[i] = telemetry.NewRegistry()
		var seeds []string
		if i > 0 {
			seeds = []string{nodes[0].Addr()}
		}
		n, err := StartNode(NodeOptions{
			Listen: "127.0.0.1:0", Seeds: seeds, Replicas: 2, Capacity: 1 << 10,
			GossipEvery: time.Hour, Registry: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			n.Close()
		})
		nodes[i] = n
	}
	members := func(i int) float64 { return regs[i].Gauge("cluster_members", nil).Value() }
	events := func(i int, event string) int64 {
		return regs[i].Counter("cluster_membership_total", telemetry.Labels{"event": event}).Value()
	}
	migrated := func(i int) int64 {
		return regs[i].Counter("kv_migration_keys_total", telemetry.Labels{"result": "ok"}).Value()
	}
	// waitFor polls cond, which the node's background goroutines make true
	// just after the member list changes, for up to 10s.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 10s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	start(0)
	start(1)
	waitMembers(t, 2, nodes[0], nodes[1])
	c := testClusterClient(t, nodes[0], nodes[1])
	const keys = 64
	for id := 0; id < keys; id++ {
		if err := c.Set(id, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	start(2)
	waitMembers(t, 3, nodes...)
	waitFor("resident keys pushed to the joiner", func() bool { return migrated(0)+migrated(1) > 0 })
	waitFor("every node counts 2 joins", func() bool { return events(0, "join")+events(1, "join")+events(2, "join") >= 6 })
	for i := range nodes {
		if m, j, l := members(i), events(i, "join"), events(i, "leave"); m != 3 || j != 2 || l != 0 {
			t.Errorf("node %d after the joins: members %v, join %d, leave %d; want 3, 2, 0", i, m, j, l)
		}
	}

	// Closing the node is the point.
	nodes[2].Close()
	survivors := nodes[:2]
	for round := 0; len(survivors[0].Nodes()) != 2 || len(survivors[1].Nodes()) != 2; round++ {
		if round == 100 {
			t.Fatalf("100 gossip rounds did not expel the closed node: %v %v", survivors[0].Nodes(), survivors[1].Nodes())
		}
		survivors[round%2].gossipOnce()
	}
	// A survivor can expel the closed node and then learn it again from
	// the other's HELLO reply, which still lists it, so a survivor may
	// count more than one leave; its joins always exceed its leaves by
	// the one other survivor it keeps.
	for i := range survivors {
		m, j, l := members(i), events(i, "join"), events(i, "leave")
		if m != 2 || l < 1 || j-l != 1 {
			t.Errorf("survivor %d after the expel: members %v, join %d, leave %d; want 2 members, a leave, and one more join than leaves", i, m, j, l)
		}
		t.Logf("survivor %d: join %d, leave %d", i, j, l)
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
		if len(n1.Nodes()) == 3 && len(n2.Nodes()) == 3 && len(n3.Nodes()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not converge: %v %v %v", n1.Nodes(), n2.Nodes(), n3.Nodes())
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
