package cache

import "container/heap"

// LFU is a least-frequently-used cache. Frequency counts persist only while
// an item is resident (as in the classic in-memory LFU the paper benchmarks
// in Fig 3b). Ties are broken by least-recent insertion using a
// monotonically increasing sequence number.
type LFU struct {
	capacity int
	entries  map[int]*lfuEntry
	heap     lfuHeap
	seq      uint64
}

type lfuEntry struct {
	item Item
	freq int
	seq  uint64
	pos  int // heap index
}

// NewLFU returns an empty LFU cache holding up to capacity items.
func NewLFU(capacity int) *LFU {
	checkCap(capacity)
	return &LFU{capacity: capacity, entries: make(map[int]*lfuEntry, capacity)}
}

// Get reports whether id is cached, incrementing its frequency on a hit.
func (c *LFU) Get(id int) (Item, bool) {
	e, ok := c.entries[id]
	if !ok {
		return Item{}, false
	}
	e.freq++
	heap.Fix(&c.heap, e.pos)
	return e.item, true
}

// Put admits item, evicting the least frequently used entry when full.
func (c *LFU) Put(item Item) bool {
	if c.capacity == 0 {
		return false
	}
	if e, ok := c.entries[item.ID]; ok {
		e.item = item
		e.freq++
		heap.Fix(&c.heap, e.pos)
		return true
	}
	if len(c.entries) >= c.capacity {
		victim := heap.Pop(&c.heap).(*lfuEntry)
		delete(c.entries, victim.item.ID)
	}
	c.seq++
	e := &lfuEntry{item: item, freq: 1, seq: c.seq}
	c.entries[item.ID] = e
	heap.Push(&c.heap, e)
	return true
}

// lfuHeap is a min-heap on (freq, seq) that keeps each entry's pos.
type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }

func (h lfuHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.seq < b.seq
}

func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}

func (h *lfuHeap) Push(x any) {
	e := x.(*lfuEntry)
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *lfuHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
