package kvserver

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestAutoShards(t *testing.T) {
	cases := []struct {
		capacity, want int
	}{
		{1, 1},
		{2, 1},
		{63, 1},
		{64, 1},
		{127, 1},
		{128, 2},
		{256, 4},
		{512, 8},
		{1024, 16},
		{1 << 20, 16}, // capped at maxAutoShards
	}
	for _, tc := range cases {
		if got := autoShards(tc.capacity); got != tc.want {
			t.Errorf("autoShards(%d) = %d, want %d", tc.capacity, got, tc.want)
		}
	}
}

// TestShardCapacityAccounting: the per-shard capacities sum exactly to the
// requested capacity, for every shard count, including non-dividing ones.
func TestShardCapacityAccounting(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 100, 1000, 4096} {
		for _, shards := range []int{1, 2, 4, 8, 16} {
			st := newStoreShards(capacity, shards)
			sum := 0
			for i := 0; i < st.numShards(); i++ {
				_, _, _, cap := st.shardStats(i)
				if cap < 0 {
					t.Fatalf("capacity=%d shards=%d: negative shard cap", capacity, shards)
				}
				sum += cap
			}
			if sum != capacity {
				t.Errorf("capacity=%d shards=%d: shard caps sum to %d", capacity, shards, sum)
			}
		}
	}
}

// TestShardedEvictionBound: resident items never exceed the configured
// capacity no matter how keys hash, because each shard evicts against its
// own slice of the budget.
func TestShardedEvictionBound(t *testing.T) {
	const capacity = 100
	st := newStoreShards(capacity, 8)
	for i := 0; i < 10*capacity; i++ {
		st.set(fmt.Sprintf("key-%d", i), []byte("v"))
		if items, _, _ := st.stats(); items > capacity {
			t.Fatalf("after %d sets: %d items > capacity %d", i+1, items, capacity)
		}
	}
	items, _, _ := st.stats()
	// Every shard saw far more keys than its slice holds, so the store
	// should be full (each shard pinned at its own capacity).
	if items != capacity {
		t.Fatalf("store not full after 10x-capacity inserts: %d/%d", items, capacity)
	}
}

// TestStatsEqualsShardSums: the aggregate STATS triple is exactly the sum
// of the per-shard counters.
func TestStatsEqualsShardSums(t *testing.T) {
	st := newStoreShards(256, 8)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i%100)
		if i%3 == 0 {
			st.set(key, []byte("v"))
		} else {
			st.get(fmt.Sprintf("k%d", i%150)) // mix of hits and misses
		}
	}
	items, hits, misses := st.stats()
	var sumItems int
	var sumHits, sumMisses int64
	for i := 0; i < st.numShards(); i++ {
		it, h, m, _ := st.shardStats(i)
		sumItems += it
		sumHits += h
		sumMisses += m
	}
	if items != sumItems || hits != sumHits || misses != sumMisses {
		t.Fatalf("stats (%d,%d,%d) != shard sums (%d,%d,%d)",
			items, hits, misses, sumItems, sumHits, sumMisses)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate workload: hits=%d misses=%d", hits, misses)
	}
}

// TestShardDistribution: FNV-1a spreads realistic key shapes across shards
// (no shard empty, no shard hoarding) — the property shard balance gauges
// exist to watch.
func TestShardDistribution(t *testing.T) {
	st := newStoreShards(1<<14, 16)
	const n = 4096
	for i := 0; i < n; i++ {
		st.set(fmt.Sprintf("sample:%d", i), []byte("v"))
	}
	mean := n / st.numShards()
	for i := 0; i < st.numShards(); i++ {
		items, _, _, _ := st.shardStats(i)
		if items < mean/2 || items > mean*2 {
			t.Errorf("shard %d has %d items, mean %d — badly unbalanced", i, items, mean)
		}
	}
}

// TestSingleShardStrictLRU: a 1-shard store preserves the exact global LRU
// behaviour of the pre-sharding implementation.
func TestSingleShardStrictLRU(t *testing.T) {
	st := newStoreShards(2, 1)
	st.set("a", []byte("1"))
	st.set("b", []byte("2"))
	if _, ok := st.get("a"); !ok {
		t.Fatal("a missing")
	}
	st.set("c", []byte("3")) // must evict b, the global LRU
	if _, ok := st.get("b"); ok {
		t.Fatal("LRU victim b still present")
	}
	if _, ok := st.get("a"); !ok {
		t.Fatal("recently used a evicted")
	}
}

// TestStoreGetZeroAlloc: the server's GET reads the store through
// getBytes, and neither a hit nor a miss may allocate there.
func TestStoreGetZeroAlloc(t *testing.T) {
	st := newStoreShards(4096, 4)
	payload := bytes.Repeat([]byte("z"), 512)
	keys := make([][]byte, 256)
	for i := range keys {
		k := fmt.Sprintf("za-%d", i)
		st.set(k, payload)
		keys[i] = []byte(k)
	}
	missing := []byte("za-missing")
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if v, ok := st.getBytes(keys[i%len(keys)]); !ok || len(v) != len(payload) {
			t.Fatal("unexpected miss")
		}
		if _, ok := st.getBytes(missing); ok {
			t.Fatal("unexpected hit")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("store GET path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStoreRaceStress hammers one store with mixed GET/SET/PEEK from many
// goroutines; run under -race it checks the per-shard locking discipline.
func TestStoreRaceStress(t *testing.T) {
	st := newStoreShards(512, 8)
	const goroutines = 8
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g*31+i*7)%256)
				switch i % 4 {
				case 0, 1:
					st.get(key)
				case 2:
					st.set(key, []byte{byte(g), byte(i)})
				case 3:
					st.peek(key)
				}
			}
		}(g)
	}
	wg.Wait()
	items, hits, misses := st.stats()
	if items < 0 || items > 512 {
		t.Fatalf("items out of bounds: %d", items)
	}
	if hits+misses == 0 {
		t.Fatal("no gets recorded")
	}
}

// TestServerRaceStress drives mixed verbs over many real connections — the
// wire-level -race stress for the sharded data plane, pipelines included.
func TestServerRaceStress(t *testing.T) {
	srv := serve(t, storeConfig(512), nil, nil)
	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%40)
				switch i % 5 {
				case 0:
					if err := c.Set(key, []byte("v")); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := c.Get(key); err != nil {
						errs <- err
						return
					}
				case 2:
					if err := c.RSet(key, []byte("r")); err != nil {
						errs <- err
						return
					}
				case 3:
					p := c.Pipeline()
					p.Set(key+"a", []byte{1})
					p.Set(key+"b", []byte{2})
					if _, err := p.Exec(); err != nil {
						errs <- err
						return
					}
				case 4:
					p := c.Pipeline()
					p.Set(key, []byte("p"))
					p.Get(key)
					p.Get(key + "a")
					if _, err := p.Exec(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if items, _, _ := srv.Stats(); items > 512 {
		t.Fatalf("capacity breached: %d items", items)
	}
}
