package cache

// LRU is a least-recently-used cache over sample items.
type LRU struct {
	capacity int
	entries  map[int]*lruNode
	head     *lruNode // most recent
	tail     *lruNode // least recent
}

type lruNode struct {
	item       Item
	prev, next *lruNode
}

// NewLRU returns an empty LRU cache holding up to capacity items.
func NewLRU(capacity int) *LRU {
	checkCap(capacity)
	return &LRU{capacity: capacity, entries: make(map[int]*lruNode, capacity)}
}

// Get reports whether id is cached, marking it most recently used.
func (c *LRU) Get(id int) (Item, bool) {
	n, ok := c.entries[id]
	if !ok {
		return Item{}, false
	}
	c.moveToFront(n)
	return n.item, true
}

// Put admits item, evicting the least recently used entry when full.
func (c *LRU) Put(item Item) bool {
	if c.capacity == 0 {
		return false
	}
	if n, ok := c.entries[item.ID]; ok {
		n.item = item
		c.moveToFront(n)
		return true
	}
	if len(c.entries) >= c.capacity {
		c.evictTail()
	}
	n := &lruNode{item: item}
	c.entries[item.ID] = n
	c.pushFront(n)
	return true
}

func (c *LRU) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *LRU) evictTail() {
	if c.tail == nil {
		return
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.entries, victim.item.ID)
}
