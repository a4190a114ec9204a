package kvserver

import (
	"sync"
	"sync/atomic"
)

// The value store is N-way sharded: keys are FNV-1a-hashed to a shard and
// shards never contend with each other. Each shard is a mutex-guarded
// exact LRU, and every insert is admitted, evicting the shard's tail when
// it is full (DESIGN.md §6 has the measurements behind that choice).
//
// A value is a []byte the store owns. The last value a SET displaced from
// a shard, replaced or evicted, stays with the shard as its spare, and the
// next SET of the same length into that shard reads its payload into it
// (buf). A stored slice may therefore be written again once the shard
// mutex is released, so no reader holds one past the mutex: get hands the
// value to a callback under it.
//
// Shard count is a power of two chosen from the capacity: one shard per
// minShardItems items, capped at maxAutoShards. Small stores (capacity <
// 2*minShardItems) stay single-sharded, which preserves strict global LRU
// ordering — the sharded arrangement is LRU *per shard*, so eviction order
// across the whole store is only approximately LRU.

const (
	// minShardItems is the smallest per-shard capacity the automatic
	// shard-count heuristic will produce.
	minShardItems = 64
	// maxAutoShards caps the automatic shard count.
	maxAutoShards = 16
)

// shardStat is one shard's hit/miss counters, padded out to a full cache
// line. The counters for all shards live in one contiguous slice; without
// the padding, two neighbouring shards' counters share a 64-byte line and
// every hit on shard i invalidates the line under shard i±1's counter —
// false sharing that showed up directly in the shard-sweep benchmark
// (BenchmarkStoreGet: ~1.8x worse ops/s at shards=16 with unpadded
// adjacent counters; see the note there).
type shardStat struct {
	hits   atomic.Int64
	misses atomic.Int64
	_      [48]byte
}

// store routes keys across mutex-LRU shards.
type store struct {
	shards []*shard
	stats_ []shardStat // contiguous padded per-shard counters
	mask   uint32
	// onEvict is called with each key the store evicts to make room,
	// eviction being the only way a key leaves the store. It is set before
	// the store serves traffic, may be nil, and runs after the owning
	// shard's mutex is released, so it may take locks of its own without
	// ordering against shard locks.
	onEvict func(string)
}

// shard is one independent LRU partition.
type shard struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*kvNode
	head     *kvNode // most recently used
	tail     *kvNode
	spare    []byte // the last value a set displaced, for buf to hand out
}

type kvNode struct {
	key        string
	value      []byte
	prev, next *kvNode
}

// autoShards picks a power-of-two shard count for capacity.
func autoShards(capacity int) int {
	n := capacity / minShardItems
	if n < 1 {
		n = 1
	}
	if n > maxAutoShards {
		n = maxAutoShards
	}
	return floorPow2(n)
}

func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// shardCaps splits capacity exactly across n shards: base items per shard,
// the remainder spread one-each over the first shards, so the sum of shard
// capacities equals capacity. n is rounded down to a power of two and
// clamped to [1, capacity] so every shard holds at least one item.
func shardCaps(capacity, n int) []int {
	if n < 1 {
		n = 1
	}
	if n > capacity {
		n = capacity
	}
	n = floorPow2(n)
	caps := make([]int, n)
	base, rem := capacity/n, capacity%n
	for i := range caps {
		caps[i] = base
		if i < rem {
			caps[i]++
		}
	}
	return caps
}

// newStore builds a store with the automatic shard count.
func newStore(capacity int) *store {
	return newStoreShards(capacity, autoShards(capacity))
}

// newStoreShards builds a store with an explicit shard count.
func newStoreShards(capacity, shards int) *store {
	caps := shardCaps(capacity, shards)
	s := &store{
		shards: make([]*shard, len(caps)),
		stats_: make([]shardStat, len(caps)),
		mask:   uint32(len(caps) - 1),
	}
	for i, c := range caps {
		s.shards[i] = &shard{capacity: c, entries: make(map[string]*kvNode, c)}
	}
	return s
}

// fnv1a is the 32-bit FNV-1a hash of key. The GET path hashes the []byte
// it parsed, every other path a string; both hash alike.
func fnv1a[K string | []byte](key K) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

func shardFor[K string | []byte](s *store, key K) (int, *shard) {
	i := int(fnv1a(key) & s.mask)
	return i, s.shards[i]
}

// get bumps key's recency and its shard's hit or miss counter and, on a
// hit, calls use with the value while holding the shard mutex: a later SET
// may recycle the slice (buf), so use must copy what it keeps and must not
// block. The GET path looks up the []byte it parsed, every other path a
// string: the map lookup via string(key) compiles to an allocation-free
// conversion, so neither copies the key.
func get[K string | []byte](s *store, key K, use func(value []byte)) bool {
	i, sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.entries[string(key)]
	if !ok {
		s.stats_[i].misses.Add(1)
		return false
	}
	s.stats_[i].hits.Add(1)
	sh.moveToFront(n)
	use(n.value)
	return true
}

// has reports whether key is resident, without bumping LRU recency or the
// hit/miss counters, so a residency probe (an ESET's) neither distorts
// eviction order nor pollutes the serving hit ratio.
func (s *store) has(key []byte) bool {
	_, sh := shardFor(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[string(key)]
	return ok
}

// buf returns an n-byte buffer for a SET of key to read its payload into:
// the spare of key's shard when its length is n, a new slice otherwise.
// There are no size classes, so only same-length SETs recycle.
func (s *store) buf(key []byte, n int) []byte {
	_, sh := shardFor(s, key)
	sh.mu.Lock()
	b := sh.spare
	if len(b) == n {
		sh.spare = nil
	}
	sh.mu.Unlock()
	if len(b) != n {
		return make([]byte, n)
	}
	return b
}

// set stores value under key, taking ownership of value: the caller must
// not use it again. The value key displaces, or the one its eviction
// drops, becomes the shard's spare. key is only read, so a caller may pass
// scratch bytes; the store copies them into a string for a new key only.
func (s *store) set(key, value []byte) {
	_, sh := shardFor(s, key)
	var evicted string
	hasEvicted := false
	sh.mu.Lock()
	if n, ok := sh.entries[string(key)]; ok {
		sh.spare, n.value = n.value, value
		sh.moveToFront(n)
		sh.mu.Unlock()
		return
	}
	if len(sh.entries) >= sh.capacity && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.spare = victim.value
		evicted, hasEvicted = victim.key, true
	}
	n := &kvNode{key: string(key), value: value}
	sh.entries[n.key] = n
	sh.pushFront(n)
	sh.mu.Unlock()
	// The hook runs outside the shard lock so it can take its own locks
	// without entering the shard-lock ordering (see onEvict).
	if hasEvicted && s.onEvict != nil {
		s.onEvict(evicted)
	}
}

// stats aggregates (items, hits, misses) across shards. Item counts are
// read per shard under that shard's lock, so the totals are a consistent
// sum of per-shard snapshots (not a single global snapshot — concurrent
// ops may land between shard reads, as with any sharded counter).
func (s *store) stats() (items int, hits, misses int64) {
	for i, sh := range s.shards {
		sh.mu.Lock()
		items += len(sh.entries)
		sh.mu.Unlock()
		hits += s.stats_[i].hits.Load()
		misses += s.stats_[i].misses.Load()
	}
	return items, hits, misses
}

// shardStats reports (items, hits, misses, capacity) for shard i.
func (s *store) shardStats(i int) (items int, hits, misses int64, capacity int) {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.entries), s.stats_[i].hits.Load(), s.stats_[i].misses.Load(), sh.capacity
}

func (s *store) numShards() int { return len(s.shards) }

func (sh *shard) pushFront(n *kvNode) {
	n.prev = nil
	n.next = sh.head
	if sh.head != nil {
		sh.head.prev = n
	}
	sh.head = n
	if sh.tail == nil {
		sh.tail = n
	}
}

func (sh *shard) unlink(n *kvNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (sh *shard) moveToFront(n *kvNode) {
	if sh.head == n {
		return
	}
	sh.unlink(n)
	sh.pushFront(n)
}
