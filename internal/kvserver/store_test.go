package kvserver

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// residentKeys returns every key srv's store holds, each shard read under
// its own lock.
func residentKeys(srv *Server) []string {
	var out []string
	for _, sh := range srv.store.shards {
		sh.mu.Lock()
		for k := range sh.entries {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

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
		st.set(fmt.Appendf(nil, "key-%d", i), []byte("v"))
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
			st.set([]byte(key), []byte("v"))
		} else {
			get(st, fmt.Sprintf("k%d", i%150), ignore) // mix of hits and misses
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
		st.set(fmt.Appendf(nil, "sample:%d", i), []byte("v"))
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
	st.set([]byte("a"), []byte("1"))
	st.set([]byte("b"), []byte("2"))
	if !get(st, "a", ignore) {
		t.Fatal("a missing")
	}
	st.set([]byte("c"), []byte("3")) // must evict b, the global LRU
	if get(st, "b", ignore) {
		t.Fatal("LRU victim b still present")
	}
	if !get(st, "a", ignore) {
		t.Fatal("recently used a evicted")
	}
}

// TestStoreGetZeroAlloc: the server's GET reads the store through
// get with the []byte key it parsed, and neither a hit nor a miss may
// allocate there.
func TestStoreGetZeroAlloc(t *testing.T) {
	st := newStoreShards(4096, 4)
	payload := bytes.Repeat([]byte("z"), 512)
	keys := make([][]byte, 256)
	for i := range keys {
		k := fmt.Sprintf("za-%d", i)
		st.set([]byte(k), bytes.Clone(payload))
		keys[i] = []byte(k)
	}
	missing := []byte("za-missing")
	i, n := 0, 0
	allocs := testing.AllocsPerRun(2000, func() {
		if !get(st, keys[i%len(keys)], func(v []byte) { n = len(v) }) || n != len(payload) {
			t.Fatal("unexpected miss")
		}
		if get(st, missing, ignore) {
			t.Fatal("unexpected hit")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("store GET path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStoreRaceStress hammers one store with mixed GET/SET/HAS from many
// goroutines, its SETs reading into recycled buffers (buf) as the server's
// do; run under -race it checks the per-shard locking discipline.
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
					get(st, key, ignore)
				case 2:
					v := st.buf([]byte(key), 2)
					v[0], v[1] = byte(g), byte(i)
					st.set([]byte(key), v)
				case 3:
					st.has([]byte(key))
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
	srv := startServer(t, 512)
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
					p := c.Pipeline()
					p.Set(key, []byte("r"))
					p.Get(key)
					if err := p.Send(); err != nil {
						errs <- err
						return
					}
					if _, err := p.Recv(); err != nil {
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
	if items, _, _ := srv.store.stats(); items > 512 {
		t.Fatalf("capacity breached: %d items", items)
	}
}

// ignore is the get callback of a lookup that wants only the hit or miss.
func ignore([]byte) {}

// TestRepliesNeverTorn: a SET reads its payload into the buffer its shard
// last displaced (store.buf), so a reply that copied its value after the
// shard mutex could carry bytes of a later SET. Writers overwrite a few
// keys of one single-shard store with two payloads each, all of one
// length, while readers GET them and NGET them both exactly and through a
// NEAR substitute; every reply must be one whole payload of the key it
// names. The 1 KiB payloads fit the reply buffer (stage writes them
// there), the 24 KiB ones do not (stage copies them to session scratch).
func TestRepliesNeverTorn(t *testing.T) {
	const keys, writers, readers, rounds = 4, 2, 2, 200
	for _, size := range []int{1 << 10, 24 << 10} {
		t.Run(fmt.Sprintf("len=%d", size), func(t *testing.T) {
			srv := startServer(t, 64) // one shard: every key shares its spare
			key := func(k int) string { return fmt.Sprintf("torn%d", k) }
			payload := func(k, variant int) []byte {
				return bytes.Repeat([]byte{byte('A' + 2*k + variant)}, size)
			}
			emb := func(k int) []float32 {
				e := make([]float32, keys)
				e[k] = 1
				return e
			}
			c := dial(t, srv)
			for k := 0; k < keys; k++ {
				if err := c.Set(key(k), payload(k, 0)); err != nil {
					t.Fatal(err)
				}
				if err := eset(c, key(k), emb(k)); err != nil {
					t.Fatal(err)
				}
			}
			// check fails a reply to a request for key k that is not
			// one of k's two payloads, or is (or is not) a NEAR of k.
			check := func(k int, near bool, r Result) error {
				if r.Err != nil || !r.Found || (r.Near != nil) != near || near && r.Near.Key != key(k) {
					return fmt.Errorf("%s (near %v): found %v, near %v, err %v", key(k), near, r.Found, r.Near, r.Err)
				}
				if !bytes.Equal(r.Value, payload(k, 0)) && !bytes.Equal(r.Value, payload(k, 1)) {
					return fmt.Errorf("reply for %s (near %v) is neither of its payloads: %.40q...", key(k), near, r.Value)
				}
				return nil
			}

			clients := make([]*Client, writers+readers)
			for i := range clients {
				clients[i] = dial(t, srv)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, len(clients))
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(c *Client) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						p := c.Pipeline()
						for k := 0; k < keys; k++ {
							p.Set(key(k), payload(k, (i+k)%2))
						}
						if _, err := p.Exec(); err != nil {
							errs <- err
							return
						}
					}
				}(clients[w])
			}
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func(c *Client) {
					defer rwg.Done()
					for i := 0; i < rounds; i++ {
						p := c.Pipeline()
						for k := 0; k < keys; k++ {
							p.Get(key(k))
							p.NGet(key(k), emb(k), 0.5)                     // exact hit
							p.NGet(fmt.Sprintf("absent%d", k), emb(k), 0.5) // NEAR key(k)
						}
						res, err := p.Exec()
						if err != nil {
							errs <- err
							return
						}
						for j, r := range res {
							if err := check(j/3, j%3 == 2, r); err != nil {
								errs <- err
								return
							}
						}
					}
				}(clients[writers+r])
			}
			rwg.Wait()
			stop.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
