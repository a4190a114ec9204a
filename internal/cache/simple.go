package cache

import "spidercache/internal/xrand"

// Static is CoorDL's MinIO cache: items are admitted until the cache fills
// and are never replaced, so across epochs the same subset always hits.
type Static struct {
	capacity int
	entries  map[int]Item
}

// NewStatic returns an empty static (MinIO) cache.
func NewStatic(capacity int) *Static {
	checkCap(capacity)
	return &Static{capacity: capacity, entries: make(map[int]Item, capacity)}
}

// Get reports whether id is cached.
func (c *Static) Get(id int) (Item, bool) {
	it, ok := c.entries[id]
	return it, ok
}

// Put admits item only while free space remains; it never evicts.
func (c *Static) Put(item Item) bool {
	if _, ok := c.entries[item.ID]; ok {
		c.entries[item.ID] = item
		return true
	}
	if len(c.entries) >= c.capacity {
		return false
	}
	c.entries[item.ID] = item
	return true
}

// RandomReplace evicts a uniformly random resident item when full — the
// replacement rule iCache applies to its L-sample (non-important) cache
// region.
type RandomReplace struct {
	capacity int
	entries  map[int]int // id -> index in ids
	ids      []int
	items    []Item
	rng      *xrand.Rand
}

// NewRandomReplace returns an empty random-replacement cache; rng drives
// victim selection deterministically.
func NewRandomReplace(capacity int, rng *xrand.Rand) *RandomReplace {
	checkCap(capacity)
	return &RandomReplace{capacity: capacity, entries: make(map[int]int, capacity), rng: rng}
}

// Get reports whether id is cached.
func (c *RandomReplace) Get(id int) (Item, bool) {
	idx, ok := c.entries[id]
	if !ok {
		return Item{}, false
	}
	return c.items[idx], true
}

// Put admits item, evicting a random resident entry when full.
func (c *RandomReplace) Put(item Item) bool {
	if c.capacity == 0 {
		return false
	}
	if idx, ok := c.entries[item.ID]; ok {
		c.items[idx] = item
		return true
	}
	if len(c.ids) >= c.capacity {
		v := c.rng.Intn(len(c.ids))
		delete(c.entries, c.ids[v])
		last := len(c.ids) - 1
		c.ids[v], c.items[v] = c.ids[last], c.items[last]
		c.entries[c.ids[v]] = v
		c.ids = c.ids[:last]
		c.items = c.items[:last]
	}
	c.entries[item.ID] = len(c.ids)
	c.ids = append(c.ids, item.ID)
	c.items = append(c.items, item)
	return true
}

// RandomResident returns a uniformly random cached item, used by iCache to
// serve a substitute for an L-sample miss. ok is false when empty.
func (c *RandomReplace) RandomResident() (Item, bool) {
	if len(c.ids) == 0 {
		return Item{}, false
	}
	return c.items[c.rng.Intn(len(c.items))], true
}
