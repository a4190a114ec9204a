package cluster

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"spidercache/internal/xrand"
)

func ringWith(t *testing.T, nodes ...string) *Ring {
	t.Helper()
	r, err := NewRing(ringPoints, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// owners returns the n owners of sample id.
func owners(r *Ring, id, n int) []string { return r.OwnersKey(key(id), n) }

// owner is the primary of id: the first of its owners, or "" when the
// ring is empty.
func owner(r *Ring, id int) string {
	if o := owners(r, id, 1); len(o) > 0 {
		return o[0]
	}
	return ""
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0, "w1"); err == nil {
		t.Fatal("zero points accepted")
	}
	if _, err := NewRing(4, "w1", ""); err == nil {
		t.Fatal("empty node accepted")
	}
	// A node placed twice would count twice toward the owners a lookup
	// walks for.
	if _, err := NewRing(4, "w1", "w2", "w1"); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestEmptyRing(t *testing.T) {
	r, _ := NewRing(8)
	if got := owner(r, 1); got != "" {
		t.Fatalf("empty ring owner %q", got)
	}
	if got := owners(r, 1, 2); got != nil {
		t.Fatalf("empty ring owners %v", got)
	}
}

func TestOwnerDeterministic(t *testing.T) {
	a := ringWith(t, "w1", "w2", "w3")
	b := ringWith(t, "w3", "w1", "w2") // insertion order must not matter
	for id := 0; id < 500; id++ {
		if owner(a, id) != owner(b, id) {
			t.Fatalf("id %d: %s vs %s", id, owner(a, id), owner(b, id))
		}
	}
}

func TestBalance(t *testing.T) {
	r := ringWith(t, "w1", "w2", "w3", "w4")
	counts := map[string]int{}
	const keys = 20000
	for id := 0; id < keys; id++ {
		counts[owner(r, id)]++
	}
	want := keys / 4
	for node, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %s owns %d keys, want ~%d", node, c, want)
		}
	}
}

func TestConsistencyOnAddition(t *testing.T) {
	r := ringWith(t, "w1", "w2", "w3")
	before := make([]string, 10000)
	for id := range before {
		before[id] = owner(r, id)
	}
	after := ringWith(t, "w1", "w2", "w3", "w4")
	movedToNew, movedBetweenOld := 0, 0
	for id, prev := range before {
		now := owner(after, id)
		if now == prev {
			continue
		}
		if now == "w4" {
			movedToNew++
		} else {
			movedBetweenOld++
		}
	}
	if movedBetweenOld != 0 {
		t.Fatalf("%d keys moved between pre-existing nodes", movedBetweenOld)
	}
	// The new node should take roughly a quarter of the keys.
	if movedToNew < len(before)/8 || movedToNew > len(before)/2 {
		t.Fatalf("new node took %d/%d keys", movedToNew, len(before))
	}
}

// TestJoinKeepsOldPrimaryAnOwner: after one node joins a ring, every
// key's old primary is still among its two owners, because the joiner's
// points can only come before it on the walk. Nothing moves keys when a
// node joins, so this is what keeps a key written before a join readable
// at replicas >= 2: a client that walks the new owners reaches the old
// primary, which holds the key (TestJoinKeepsEveryKeyReadable).
func TestJoinKeepsOldPrimaryAnOwner(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		var nodes []string
		for len(nodes) < 3+trial%5 {
			if node := fmt.Sprintf("10.0.%d.%d:7461", rng.Intn(256), rng.Intn(256)); !slices.Contains(nodes, node) {
				nodes = append(nodes, node)
			}
		}
		r := ringWith(t, nodes...)
		const keys = 2000
		before := make([]string, keys)
		for id := range before {
			before[id] = owner(r, id)
		}
		joiner := fmt.Sprintf("10.1.%d.%d:7461", rng.Intn(256), rng.Intn(256))
		after := ringWith(t, append(nodes, joiner)...)
		for id, primary := range before {
			if now := owners(after, id, 2); !slices.Contains(now, primary) {
				t.Fatalf("ring of %d + %s: key %d's old primary %s is not among its owners %v", len(nodes), joiner, id, primary, now)
			}
		}
	}
}

func TestOwnersReplication(t *testing.T) {
	r := ringWith(t, "w1", "w2", "w3")
	for id := 0; id < 200; id++ {
		owners := owners(r, id, 2)
		if len(owners) != 2 {
			t.Fatalf("id %d: owners %v", id, owners)
		}
		if owners[0] == owners[1] {
			t.Fatalf("id %d: duplicate owners %v", id, owners)
		}
		if owners[0] != owner(r, id) {
			t.Fatalf("id %d: primary %s differs from the first of %v", id, owner(r, id), owners)
		}
	}
	// Requesting more replicas than nodes returns every node once.
	if got := owners(r, 7, 10); len(got) != 3 {
		t.Fatalf("over-replication returned %v", got)
	}
}

// TestOwnersStopsAtNodeCount: asking for more owners than the ring has
// nodes returns each node once without walking the rest of the circle,
// and a lookup allocates only the slice it returns.
func TestOwnersStopsAtNodeCount(t *testing.T) {
	one := ringWith(t, "w1")
	for id := 0; id < 50; id++ {
		if got := owners(one, id, 2); len(got) != 1 || got[0] != "w1" {
			t.Fatalf("Owners(%d, 2) on a 1-node ring = %v, want [w1]", id, got)
		}
	}
	three := ringWith(t, "w1", "w2", "w3")
	k := key(42)
	if allocs := testing.AllocsPerRun(100, func() { three.OwnersKey(k, 2) }); allocs > 1 {
		t.Fatalf("OwnersKey allocates %v times, want at most 1", allocs)
	}
}

// TestConcurrentAccess: lookups from several goroutines share one ring
// with no lock (run it under -race), and each sees the owners a lone
// lookup does.
func TestConcurrentAccess(t *testing.T) {
	r := ringWith(t, "w1", "w2", "w3")
	want := make([][]string, 5000)
	for id := range want {
		want[id] = owners(r, id, 2)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range want {
				if got := owners(r, id, 2); !slices.Equal(got, want[id]) {
					t.Errorf("id %d: concurrent owners %v, want %v", id, got, want[id])
					return
				}
			}
		}()
	}
	wg.Wait()
}
