package cache

import "container/heap"

// Importance is the score-driven cache of the paper's Section 4.2: a
// min-heap keyed by importance score evicts the least important resident
// sample when a more important one arrives. SHADE's cache, iCache's H-sample
// region and SpiderCache's Importance Cache are all instances of it.
type Importance struct {
	capacity int
	entries  map[int]*impEntry
	heap     impHeap
}

type impEntry struct {
	item  Item
	score float64
	pos   int
}

// NewImportance returns an empty importance cache holding up to capacity
// items.
func NewImportance(capacity int) *Importance {
	checkCap(capacity)
	return &Importance{capacity: capacity, entries: make(map[int]*impEntry, capacity)}
}

// Get reports whether id is cached.
func (c *Importance) Get(id int) (Item, bool) {
	e, ok := c.entries[id]
	if !ok {
		return Item{}, false
	}
	return e.item, true
}

// Put offers item with the given importance score. While free space remains
// the item is admitted unconditionally; once full it displaces the minimum
// only when score exceeds it (Case 4 of the paper's walkthrough). It reports
// whether the item is resident afterwards.
func (c *Importance) Put(item Item, score float64) bool {
	if c.capacity == 0 {
		return false
	}
	if e, ok := c.entries[item.ID]; ok {
		e.item = item
		e.score = score
		heap.Fix(&c.heap, e.pos)
		return true
	}
	if len(c.entries) >= c.capacity {
		// Case 2: an arriving sample scoring no higher than the heap top
		// (the eviction candidate) displaces nothing.
		if c.heap[0].score >= score {
			return false
		}
		c.evictMin()
	}
	e := &impEntry{item: item, score: score}
	c.entries[item.ID] = e
	heap.Push(&c.heap, e)
	return true
}

// UpdateScore adjusts the score of a resident item (scores drift as the
// graph-based IS re-evaluates samples). It reports whether id was resident.
func (c *Importance) UpdateScore(id int, score float64) bool {
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	e.score = score
	heap.Fix(&c.heap, e.pos)
	return true
}

// Resize changes the capacity. Shrinking evicts the lowest-score entries
// until the new capacity is met; growing takes effect immediately. This is
// how the Elastic Cache Manager moves space between cache sections.
func (c *Importance) Resize(capacity int) {
	checkCap(capacity)
	c.capacity = capacity
	for len(c.entries) > capacity {
		c.evictMin()
	}
}

func (c *Importance) evictMin() {
	victim := heap.Pop(&c.heap).(*impEntry)
	delete(c.entries, victim.item.ID)
}

// impHeap is a min-heap on score that keeps each entry's pos.
type impHeap []*impEntry

func (h impHeap) Len() int           { return len(h) }
func (h impHeap) Less(i, j int) bool { return h[i].score < h[j].score }

func (h impHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (h *impHeap) Push(x any) {
	e := x.(*impEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *impHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
