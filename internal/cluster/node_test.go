package cluster

import (
	"bufio"
	"bytes"
	"errors"
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

// startTestNode boots a daemon that retries a lost greeting every 25ms, so
// joins finish within test-friendly deadlines.
func startTestNode(t *testing.T, seeds ...string) *Node {
	t.Helper()
	return startGossipNode(t, 25*time.Millisecond, seeds...)
}

// startGossipNode boots a daemon that retries an unanswered greeting every
// `every`; it is closed when tb ends.
func startGossipNode(tb testing.TB, every time.Duration, seeds ...string) *Node {
	tb.Helper()
	n, err := StartNode(NodeOptions{
		Listen:      "127.0.0.1:0",
		Seeds:       seeds,
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
// converge without a retry: at a one-hour interval, every node lists all
// four members within 2s of the last StartNode.
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
// retry interval) and reports the mean time from the third StartNode returning to
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
// sorted, itself included once, whatever order it learned its peers in. A
// HELLO records its caller, unless the caller names this node's own
// address.
func TestNodesSorted(t *testing.T) {
	n := &Node{self: "b", members: map[string]bool{"c": true, "a": false}}
	if got := fmt.Sprint(n.Nodes()); got != "[a b c]" {
		t.Fatalf("Nodes() = %v", got)
	}
	if got := fmt.Sprint(n.Hello("b")); got != "[a b c]" {
		t.Fatalf("Hello(self) = %v, want self listed once", got)
	}
	if got := fmt.Sprint(n.Hello("a")); got != "[a b c]" || !n.members["a"] {
		t.Fatalf("Hello(a) = %v, answered %v; want a marked as answered", got, n.members["a"])
	}
	if got := fmt.Sprint(n.Hello("d")); got != "[a b c d]" || !n.members["d"] {
		t.Fatalf("Hello(d) = %v, answered %v; want d recorded as answered", got, n.members["d"])
	}
}

// TestAddIdempotent: a member added again leaves a node's member list as
// it was, whether it comes twice among the seeds or greets twice over the
// wire.
func TestAddIdempotent(t *testing.T) {
	leakcheck.Check(t)
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr(), n1.Addr())
	waitMembers(t, 2, n1, n2)
	kc, err := kvserver.Dial(n1.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	want := n1.Nodes()
	for i := 0; i < 2; i++ {
		members, err := kc.Hello(n2.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(members, want) {
			t.Fatalf("HELLO %d from a member = %v, want %v", i, members, want)
		}
	}
	for _, n := range []*Node{n1, n2} {
		if got := n.Nodes(); len(got) != 2 {
			t.Fatalf("%s lists %v, want 2 members", n.Addr(), got)
		}
	}
}

// TestStartNodeRetryInterval: a GossipEvery of zero or less takes the
// 500ms default, and a positive one is kept.
func TestStartNodeRetryInterval(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct{ set, want time.Duration }{
		{0, 500 * time.Millisecond},
		{-time.Second, 500 * time.Millisecond},
		{25 * time.Millisecond, 25 * time.Millisecond},
	} {
		if n := startGossipNode(t, tc.set); n.every != tc.want {
			t.Errorf("GossipEvery %v: interval %v, want %v", tc.set, n.every, tc.want)
		}
	}
}

// fakeSeed serves HELLO-shaped replies on a loopback port until the test
// ends: reply(addr, i) answers every request line on the i-th connection
// (from 0), or, when it reports false, that connection is closed
// unanswered. It returns the port's address and the number of connections
// accepted so far.
func fakeSeed(t *testing.T, reply func(addr string, i int) (string, bool)) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var accepted atomic.Int64
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
			line, ok := reply(addr, int(accepted.Add(1)-1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The peer hung up, the reply is withheld, or the test ended.
				defer conn.Close()
				r := bufio.NewReader(conn)
				for ok {
					if _, err := r.ReadString('\n'); err != nil {
						return
					}
					if _, err := io.WriteString(conn, line); err != nil {
						return
					}
				}
			}()
		}
	}()
	return addr, &accepted
}

// TestJoinRetriesUntilAnswered: a seed that drops the first two greetings
// is greeted again each interval until it answers, and then no more: the
// join loop ends once every member has answered.
func TestJoinRetriesUntilAnswered(t *testing.T) {
	leakcheck.Check(t)
	seed, greetings := fakeSeed(t, func(addr string, i int) (string, bool) {
		return "NODES 1\r\n" + addr + "\r\n", i >= 2
	})
	const every = 5 * time.Millisecond
	n := startGossipNode(t, every, seed)
	for deadline := time.Now().Add(10 * time.Second); greetings.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d greetings within 10s, want 3", greetings.Load())
		}
	}
	time.Sleep(20 * every)
	if g := greetings.Load(); g != 3 {
		t.Fatalf("%d greetings, want 3: two dropped, one answered, then none", g)
	}
	if got := n.Nodes(); !slices.Contains(got, seed) {
		t.Fatalf("Nodes() = %v, want the seed %s listed", got, seed)
	}
}

// TestNodeRejectsInvalidMemberFromReply points a node at a seed that
// answers every request with a NODES list holding an empty address. The
// reply must fail as a whole: an accepted "" would be dialled every round
// and listed in this node's own replies, spreading to every member.
func TestNodeRejectsInvalidMemberFromReply(t *testing.T) {
	leakcheck.Check(t)
	seed, _ := fakeSeed(t, func(addr string, _ int) (string, bool) {
		return "NODES 2\r\n" + addr + "\r\n\r\n", true
	})
	n := startTestNode(t, seed)
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if members := n.Nodes(); slices.Contains(members, "") {
			t.Fatalf("Nodes() = %q: a NODES reply planted an empty address", members)
		}
	}
}

// TestReplicatedSetReadableFromEveryOwner: as Set returns, the value is
// on every owner the client's ring names, read back from each daemon over
// the wire with no polling.
func TestReplicatedSetReadableFromEveryOwner(t *testing.T) {
	leakcheck.Check(t)
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	n3 := startTestNode(t, n1.Addr())
	c := testClusterClient(t, n1, n2, n3)

	for id := 0; id < 64; id++ {
		payload := []byte(fmt.Sprintf("v%d", id))
		if err := c.Set(id, payload); err != nil {
			t.Fatalf("Set(%d): %v", id, err)
		}
		addrs := owners(c.ring, id, 2)
		if len(addrs) != 2 {
			t.Fatalf("owners of %d = %v, want 2", id, addrs)
		}
		for _, addr := range addrs {
			if v := stored(t, addr, key(id))[key(id)]; !bytes.Equal(v, payload) {
				t.Fatalf("key %d on owner %s = %q as Set returned, want %q", id, addr, v, payload)
			}
		}
	}
}

// TestJoinKeepsEveryKeyReadable: a third daemon joining two that hold
// keys opens no NOT_FOUND window, through the client built before the join
// and through one that routes to the joiner too. Nothing moves a key: each
// key's old primary stays one of its two owners
// (TestJoinKeepsOldPrimaryAnOwner), and it holds the key.
func TestJoinKeepsEveryKeyReadable(t *testing.T) {
	leakcheck.Check(t)
	const keys = 200
	n1 := startTestNode(t)
	n2 := startTestNode(t, n1.Addr())
	waitMembers(t, 2, n1, n2)

	c := testClusterClient(t, n1, n2)
	payload := []byte("write-once")
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
				t.Fatalf("%s: Get(%d) returned NOT_FOUND", phase, id)
			}
			if string(v) != string(payload) {
				t.Fatalf("%s: Get(%d) = %q", phase, id, v)
			}
		}
	}
	readAll("before join")

	// Third node joins; keep reading the whole keyspace while it greets.
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
	readAll("after join")
	c = testClusterClient(t, n1, n2, n3)
	readAll("after join, all three seeds")
}

// TestKillNodeMidRunStaticSeeds runs the kill-a-node fault schedule (see
// runKillSchedule) through the client the train_remote and cluster_rw
// benchmarks build: every node a seed, replicas 2, every other setting at
// its default. The dead node stays on the client's ring for good; at the
// end its pool must fail fast, with kvserver.ErrNodeDown and no dial.
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
	runKillSchedule(t, c, n3)
	if err := probe(c, n3.Addr()); !errors.Is(err, kvserver.ErrNodeDown) {
		t.Fatalf("dead node: %v, want kvserver.ErrNodeDown", err)
	}
}

// startKillCluster boots the three daemons of the kill schedule and waits
// for their membership to converge, as the benchmark harness does.
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
// replication and the replica walk must absorb the death: no op may
// return an error, every hit must carry exactly its id's payload, and
// every id acknowledged before the kill must still be found after it. After the kill, Sets go to the upper half
// of the ids only, so the lower half keeps what the kill left: a later Set
// would write an id to the survivors anyway and hide a lost write.
func runKillSchedule(t *testing.T, c *Client, n3 *Node) {
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

// TestNodeDeathKeysSurvive: with one of three daemons closed, every key
// written before is still read, from its surviving owner.
func TestNodeDeathKeysSurvive(t *testing.T) {
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
