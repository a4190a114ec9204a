package cache

// Homophily is SpiderCache's substitute-serving cache (Section 4.2): it
// stores high-degree graph nodes together with the IDs of their neighbours.
// A request for sample x that appears in some resident node h's neighbour
// list is served by h — a semantically similar substitute — instead of going
// to remote storage. Residents are replaced FIFO so the substitute pool
// keeps rotating, "fostering greater diversity in the training data".
type Homophily struct {
	capacity int
	entries  map[int]*homEntry // host node ID -> entry
	order    []int             // FIFO of host node IDs
	headIdx  int
	// neighbour ID -> host node IDs currently advertising it. Multiple
	// hosts may share a neighbour; lookup picks the oldest host for
	// deterministic behaviour.
	byNeighbor map[int][]int
}

type homEntry struct {
	item      Item
	neighbors []int
}

// NewHomophily returns an empty homophily cache holding up to capacity host
// nodes.
func NewHomophily(capacity int) *Homophily {
	checkCap(capacity)
	return &Homophily{
		capacity:   capacity,
		entries:    make(map[int]*homEntry, capacity),
		byNeighbor: make(map[int][]int),
	}
}

// Get reports whether host node id itself is resident.
func (c *Homophily) Get(id int) (Item, bool) {
	e, ok := c.entries[id]
	if !ok {
		return Item{}, false
	}
	return e.item, true
}

// LookupNeighbor reports whether requested sample id appears in a resident
// node's neighbour list, returning that host node's item as the substitute
// (Case 3 of the paper's walkthrough).
func (c *Homophily) LookupNeighbor(id int) (Item, bool) {
	hosts := c.byNeighbor[id]
	if len(hosts) == 0 {
		return Item{}, false
	}
	e := c.entries[hosts[0]]
	return e.item, true
}

// Contains reports whether host node id is resident (used by Algorithm 1 to
// pick a top-degree node "not previously in the Homophily Cache").
func (c *Homophily) Contains(id int) bool {
	_, ok := c.entries[id]
	return ok
}

// Put inserts a high-degree host node with its neighbour ID list, evicting
// the oldest resident when full (FIFO). Re-putting a resident host refreshes
// its neighbour list in place without changing its queue position.
func (c *Homophily) Put(item Item, neighbors []int) bool {
	if c.capacity == 0 {
		return false
	}
	if e, ok := c.entries[item.ID]; ok {
		c.dropNeighbors(item.ID, e.neighbors)
		e.item = item
		e.neighbors = append([]int(nil), neighbors...)
		c.addNeighbors(item.ID, e.neighbors)
		return true
	}
	if len(c.entries) >= c.capacity {
		c.evictOldest()
	}
	e := &homEntry{item: item, neighbors: append([]int(nil), neighbors...)}
	c.entries[item.ID] = e
	c.order = append(c.order, item.ID)
	c.addNeighbors(item.ID, e.neighbors)
	if c.headIdx > len(c.order)/2 && c.headIdx > 64 {
		c.order = append([]int(nil), c.order[c.headIdx:]...)
		c.headIdx = 0
	}
	return true
}

// Resize changes the capacity, evicting oldest residents when shrinking.
func (c *Homophily) Resize(capacity int) {
	checkCap(capacity)
	c.capacity = capacity
	for len(c.entries) > capacity {
		c.evictOldest()
	}
}

// Cap returns the host-node capacity.
func (c *Homophily) Cap() int { return c.capacity }

func (c *Homophily) evictOldest() {
	for c.headIdx < len(c.order) {
		id := c.order[c.headIdx]
		c.headIdx++
		if e, ok := c.entries[id]; ok {
			c.dropNeighbors(id, e.neighbors)
			delete(c.entries, id)
			return
		}
	}
}

func (c *Homophily) addNeighbors(host int, neighbors []int) {
	for _, nb := range neighbors {
		c.byNeighbor[nb] = append(c.byNeighbor[nb], host)
	}
}

func (c *Homophily) dropNeighbors(host int, neighbors []int) {
	for _, nb := range neighbors {
		hosts := c.byNeighbor[nb]
		for i, h := range hosts {
			if h == host {
				hosts = append(hosts[:i], hosts[i+1:]...)
				break
			}
		}
		if len(hosts) == 0 {
			delete(c.byNeighbor, nb)
		} else {
			c.byNeighbor[nb] = hosts
		}
	}
}
