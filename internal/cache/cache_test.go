package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"spidercache/internal/xrand"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(2)
	c.Put(Item{ID: 1, Size: 10})
	c.Put(Item{ID: 2, Size: 10})
	if _, ok := c.Get(1); !ok { // touch 1: now 2 is LRU
		t.Fatal("item 1 missing")
	}
	c.Put(Item{ID: 3, Size: 10}) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU victim 2 still present")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently used 1 evicted")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("new item 3 missing")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(2)
	c.Put(Item{ID: 1, Size: 10})
	c.Put(Item{ID: 1, Size: 99})
	if len(c.entries) != 1 {
		t.Fatalf("duplicate Put grew cache to %d", len(c.entries))
	}
	it, _ := c.Get(1)
	if it.Size != 99 {
		t.Fatalf("size not refreshed: %d", it.Size)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU(0)
	if c.Put(Item{ID: 1}) {
		t.Fatal("zero-capacity cache admitted an item")
	}
	if len(c.entries) != 0 {
		t.Fatal("zero-capacity cache non-empty")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := NewLFU(2)
	c.Put(Item{ID: 1})
	c.Put(Item{ID: 2})
	c.Get(1)
	c.Get(1) // freq(1)=3, freq(2)=1
	c.Put(Item{ID: 3})
	if _, ok := c.Get(2); ok {
		t.Fatal("LFU victim 2 still present")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("frequent item 1 evicted")
	}
}

func TestLFUTieBreaksByAge(t *testing.T) {
	c := NewLFU(2)
	c.Put(Item{ID: 1})
	c.Put(Item{ID: 2}) // same freq; 1 is older
	c.Put(Item{ID: 3})
	if _, ok := c.Get(1); ok {
		t.Fatal("older tie 1 survived")
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("newer tie 2 evicted")
	}
}

func TestStaticNeverEvicts(t *testing.T) {
	c := NewStatic(2)
	if !c.Put(Item{ID: 1}) || !c.Put(Item{ID: 2}) {
		t.Fatal("admission failed with free space")
	}
	if c.Put(Item{ID: 3}) {
		t.Fatal("full static cache admitted an item")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("static resident evicted")
	}
	// Refresh of a resident is allowed.
	if !c.Put(Item{ID: 1, Size: 5}) {
		t.Fatal("refresh rejected")
	}
}

func TestRandomReplaceEvictsSomething(t *testing.T) {
	c := NewRandomReplace(3, xrand.New(1))
	for i := 0; i < 100; i++ {
		c.Put(Item{ID: i})
	}
	if len(c.ids) != 3 {
		t.Fatalf("resident = %d", len(c.ids))
	}
	it, ok := c.RandomResident()
	if !ok {
		t.Fatal("RandomResident on non-empty cache failed")
	}
	if _, found := c.Get(it.ID); !found {
		t.Fatal("RandomResident returned non-resident")
	}
}

func TestRandomReplaceEmptyResident(t *testing.T) {
	c := NewRandomReplace(3, xrand.New(1))
	if _, ok := c.RandomResident(); ok {
		t.Fatal("empty cache returned a resident")
	}
}

func TestImportanceAdmissionRules(t *testing.T) {
	c := NewImportance(2)
	c.Put(Item{ID: 1}, 0.3) // Case: free space -> admit
	c.Put(Item{ID: 2}, 0.5)
	if min := c.heap[0].score; min != 0.3 {
		t.Fatalf("min score = %v", min)
	}
	// Case 2: lower score than min -> rejected.
	if c.Put(Item{ID: 3}, 0.2) {
		t.Fatal("low-score item displaced a better one")
	}
	// Case 4: higher score -> evict min.
	if !c.Put(Item{ID: 4}, 0.6) {
		t.Fatal("high-score item rejected")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("min-score item survived displacement")
	}
	if min := c.heap[0].score; min != 0.5 {
		t.Fatalf("new min score = %v", min)
	}
}

func TestImportanceUpdateScore(t *testing.T) {
	c := NewImportance(2)
	c.Put(Item{ID: 1}, 0.9)
	c.Put(Item{ID: 2}, 0.8)
	if !c.UpdateScore(1, 0.1) {
		t.Fatal("UpdateScore on resident failed")
	}
	if c.UpdateScore(99, 0.5) {
		t.Fatal("UpdateScore on absent id succeeded")
	}
	c.Put(Item{ID: 3}, 0.5) // should now displace 1 (score 0.1)
	if _, ok := c.Get(1); ok {
		t.Fatal("re-scored item not evicted first")
	}
}

func TestImportanceResize(t *testing.T) {
	c := NewImportance(4)
	for i := 0; i < 4; i++ {
		c.Put(Item{ID: i}, float64(i))
	}
	c.Resize(2) // evicts scores 0 and 1
	if len(c.entries) != 2 || c.capacity != 2 {
		t.Fatalf("after shrink %d resident, capacity %d", len(c.entries), c.capacity)
	}
	for _, id := range []int{0, 1} {
		if _, ok := c.Get(id); ok {
			t.Fatalf("low-score %d survived shrink", id)
		}
	}
	for _, id := range []int{2, 3} {
		if _, ok := c.Get(id); !ok {
			t.Fatalf("high-score %d evicted by shrink", id)
		}
	}
	c.Resize(10)
	if !c.Put(Item{ID: 9}, 0.01) {
		t.Fatal("grown cache rejected admission")
	}
}

// Property: Importance never exceeds capacity and always keeps the items
// with the highest scores among those offered (when scores are distinct and
// only inserted once).
func TestImportanceKeepsTopScores(t *testing.T) {
	check := func(seed uint16) bool {
		rng := xrand.New(uint64(seed))
		cap := 1 + rng.Intn(8)
		c := NewImportance(cap)
		n := cap + 1 + rng.Intn(20)
		scores := rng.Perm(n) // distinct scores 0..n-1
		for id, s := range scores {
			c.Put(Item{ID: id}, float64(s))
		}
		if len(c.entries) > cap {
			return false
		}
		// The kept items must be exactly those with the top-cap scores.
		for id, s := range scores {
			_, resident := c.Get(id)
			wantResident := s >= n-cap
			if resident != wantResident {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHomophilyNeighborLookup(t *testing.T) {
	c := NewHomophily(2)
	c.Put(Item{ID: 100}, []int{1, 2, 3})
	if it, ok := c.LookupNeighbor(2); !ok || it.ID != 100 {
		t.Fatalf("LookupNeighbor(2) = %+v, %v", it, ok)
	}
	if _, ok := c.LookupNeighbor(9); ok {
		t.Fatal("unknown neighbour matched")
	}
	if !c.Contains(100) {
		t.Fatal("Contains(host) false")
	}
	if _, ok := c.Get(100); !ok {
		t.Fatal("host itself not retrievable")
	}
}

func TestHomophilyFIFOEviction(t *testing.T) {
	c := NewHomophily(2)
	c.Put(Item{ID: 100}, []int{1})
	c.Put(Item{ID: 200}, []int{2})
	c.Put(Item{ID: 300}, []int{3}) // evicts 100
	if c.Contains(100) {
		t.Fatal("oldest host not evicted")
	}
	if _, ok := c.LookupNeighbor(1); ok {
		t.Fatal("evicted host's neighbours still served")
	}
	if it, ok := c.LookupNeighbor(3); !ok || it.ID != 300 {
		t.Fatal("new host's neighbours not served")
	}
}

func TestHomophilySharedNeighbors(t *testing.T) {
	c := NewHomophily(3)
	c.Put(Item{ID: 100}, []int{7})
	c.Put(Item{ID: 200}, []int{7})
	// Lookup picks the oldest host deterministically.
	if it, _ := c.LookupNeighbor(7); it.ID != 100 {
		t.Fatalf("expected oldest host 100, got %d", it.ID)
	}
	c.Put(Item{ID: 300}, []int{9})
	c.Put(Item{ID: 400}, []int{9}) // evicts 100
	if it, ok := c.LookupNeighbor(7); !ok || it.ID != 200 {
		t.Fatalf("after eviction LookupNeighbor(7) = %+v,%v", it, ok)
	}
}

func TestHomophilyRefreshKeepsQueuePosition(t *testing.T) {
	c := NewHomophily(2)
	c.Put(Item{ID: 100}, []int{1})
	c.Put(Item{ID: 200}, []int{2})
	c.Put(Item{ID: 100}, []int{5}) // refresh neighbours, still oldest
	if _, ok := c.LookupNeighbor(1); ok {
		t.Fatal("stale neighbour list survived refresh")
	}
	if _, ok := c.LookupNeighbor(5); !ok {
		t.Fatal("refreshed neighbour list not installed")
	}
	c.Put(Item{ID: 300}, []int{3}) // evicts 100 (queue position unchanged)
	if c.Contains(100) {
		t.Fatal("refreshed host jumped the FIFO queue")
	}
}

func TestHomophilyResize(t *testing.T) {
	c := NewHomophily(4)
	for i := 0; i < 4; i++ {
		c.Put(Item{ID: 100 + i}, []int{i})
	}
	c.Resize(2)
	if len(c.entries) != 2 {
		t.Fatalf("%d resident after shrink, want 2", len(c.entries))
	}
	if c.Contains(100) || c.Contains(101) {
		t.Fatal("oldest hosts survived shrink")
	}
	if len(c.byNeighbor) != 2 {
		t.Fatalf("neighbour coverage = %d", len(c.byNeighbor))
	}
}

// Property: every cache type respects its capacity under arbitrary
// workloads.
func TestCapacityInvariant(t *testing.T) {
	check := func(seed uint16, capRaw uint8) bool {
		rng := xrand.New(uint64(seed))
		capacity := int(capRaw%16) + 1
		caches := []Basic{
			NewLRU(capacity),
			NewLFU(capacity),
			NewStatic(capacity),
			NewRandomReplace(capacity, xrand.New(uint64(seed)+1)),
		}
		imp := NewImportance(capacity)
		hom := NewHomophily(capacity)
		for op := 0; op < 300; op++ {
			id := rng.Intn(40)
			for _, c := range caches {
				if rng.Float64() < 0.5 {
					c.Put(Item{ID: id})
				} else {
					c.Get(id)
				}
			}
			imp.Put(Item{ID: id}, rng.Float64())
			hom.Put(Item{ID: id}, []int{rng.Intn(40)})
		}
		for _, c := range caches {
			if resident(c) > capacity {
				return false
			}
		}
		return len(imp.entries) <= capacity && len(hom.entries) <= capacity
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// resident returns how many items c holds.
func resident(c Basic) int {
	switch c := c.(type) {
	case *LRU:
		return len(c.entries)
	case *LFU:
		return len(c.entries)
	case *Static:
		return len(c.entries)
	case *RandomReplace:
		return len(c.ids)
	}
	panic(fmt.Sprintf("resident: unknown cache %T", c))
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity accepted")
		}
	}()
	NewLRU(-1)
}
