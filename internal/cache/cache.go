// Package cache provides the capacity-bounded sample caches used by every
// policy in the repository:
//
//   - LRU / LFU:        the conventional baselines of the paper's Fig 3(b)
//   - Static:           CoorDL's MinIO cache (fill once, never evict)
//   - RandomReplace:    iCache's L-sample cache (evict a random victim)
//   - Importance:       min-heap keyed by importance score (SHADE, iCache
//     H-cache, SpiderCache's Importance Cache)
//   - Homophily:        FIFO of high-degree nodes plus their neighbour ID
//     lists (SpiderCache's substitute-serving cache)
//
// Capacities are expressed in items: the paper sizes caches as a percentage
// of the dataset's sample count. Payload sizes are carried through for I/O
// accounting but do not bound admission.
package cache

import "fmt"

// Item is a cached sample reference: the trainer stores (ID, payload size)
// pairs; actual bytes live in the storage simulator.
type Item struct {
	ID   int
	Size int
}

// Basic is the interface shared by the simple caches (LRU, LFU, Static,
// RandomReplace). The Importance and Homophily caches have richer
// APIs and are used directly.
type Basic interface {
	// Get reports whether id is cached and, for recency-based policies,
	// records the touch.
	Get(id int) (Item, bool)
	// Put admits the item, evicting per policy when full. It reports
	// whether the item resides in the cache afterwards.
	Put(item Item) bool
}

func checkCap(capacity int) {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
}
