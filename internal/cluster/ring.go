// Package cluster provides a consistent-hash shard ring for spreading a
// sample cache across multiple workers — the deployment shape of the
// cluster-wide caches (Quiver, Hoard, FanStore) the paper's related-work
// section positions SpiderCache against, and the natural way to scale its
// memory tier beyond one node.
//
// Keys are sample IDs; nodes are placed on the ring with multiple virtual
// points so load stays balanced, and adding a node only moves keys to it
// (the consistent-hashing property the tests pin down).
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// ringPoints is the number of virtual points each node takes on the
// placement ring. Every member and client of a cluster must place keys
// alike, so it is a constant, not a setting.
const ringPoints = 128

// Ring is a consistent-hash ring. It is safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	points int         // virtual points per node
	circle []ringPoint // every node's points, sorted by hash
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates a ring placing each node at `points` virtual points
// (higher = smoother balance, larger ring). Nodes and clients use
// ringPoints; tests build smaller rings.
func NewRing(points int) (*Ring, error) {
	if points < 1 {
		return nil, fmt.Errorf("cluster: ring points must be >= 1, got %d", points)
	}
	return &Ring{points: points, nodes: make(map[string]struct{})}, nil
}

// hash64 is FNV-1a over the string, mixed through SplitMix64's finaliser for
// better ring dispersion.
func hash64(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Add places node on the ring; re-adding is a no-op.
func (r *Ring) Add(node string) error {
	if node == "" {
		return fmt.Errorf("cluster: empty node name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return nil
	}
	r.nodes[node] = struct{}{}
	for v := 0; v < r.points; v++ {
		r.circle = append(r.circle, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", node, v)), node: node})
	}
	sort.Slice(r.circle, func(i, j int) bool { return r.circle[i].hash < r.circle[j].hash })
	return nil
}

// key is sample id's wire key.
func key(id int) string { return "sample:" + strconv.Itoa(id) }

// OwnersKey returns the distinct nodes owning the first `n`
// replicas-worth of successors of wire key k — used for replicated
// placement. Fewer than n nodes are returned when the ring is smaller than
// n. The walk stops once it holds n owners or every node, and dedupes
// against its own short result, so a lookup allocates only that result.
func (r *Ring) OwnersKey(k string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n = min(n, len(r.nodes))
	if n < 1 {
		return nil
	}
	h := hash64(k)
	i := sort.Search(len(r.circle), func(i int) bool { return r.circle[i].hash >= h })
	out := make([]string, 0, n)
	for steps := 0; len(out) < n; steps++ {
		p := r.circle[(i+steps)%len(r.circle)]
		if !slices.Contains(out, p.node) {
			out = append(out, p.node)
		}
	}
	return out
}
