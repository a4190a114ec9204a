// Package cluster provides a consistent-hash shard ring for spreading a
// sample cache across multiple workers — the deployment shape of the
// cluster-wide caches (Quiver, Hoard, FanStore) the paper's related-work
// section positions SpiderCache against, and the natural way to scale its
// memory tier beyond one node.
//
// Keys are sample IDs; nodes are placed on the ring with multiple virtual
// points so load stays balanced, and a ring with one more node only moves
// keys to it (the consistent-hashing property the tests pin down).
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// ringPoints is the number of virtual points each node takes on the
// placement ring. Every member and client of a cluster must place keys
// alike, so it is a constant, not a setting.
const ringPoints = 128

// Ring is a consistent-hash ring over a node set fixed when it is built.
// It is never written after NewRing, so it is safe for concurrent use
// without a lock.
type Ring struct {
	circle []ringPoint // every node's points, sorted by hash
	nodes  int         // distinct nodes on the circle
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring placing each of nodes at `points` virtual points
// (higher = smoother balance, larger ring). Nodes and clients use
// ringPoints; tests build smaller rings. The nodes must be distinct and
// named; their order does not matter.
func NewRing(points int, nodes ...string) (*Ring, error) {
	if points < 1 {
		return nil, fmt.Errorf("cluster: ring points must be >= 1, got %d", points)
	}
	r := &Ring{circle: make([]ringPoint, 0, points*len(nodes)), nodes: len(nodes)}
	for i, node := range nodes {
		if node == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if slices.Contains(nodes[:i], node) {
			return nil, fmt.Errorf("cluster: duplicate node %q", node)
		}
		for v := 0; v < points; v++ {
			r.circle = append(r.circle, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", node, v)), node: node})
		}
	}
	sort.Slice(r.circle, func(i, j int) bool { return r.circle[i].hash < r.circle[j].hash })
	return r, nil
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

// key is sample id's wire key.
func key(id int) string { return "sample:" + strconv.Itoa(id) }

// OwnersKey returns the distinct nodes owning the first `n`
// replicas-worth of successors of wire key k — used for replicated
// placement. Fewer than n nodes are returned when the ring is smaller than
// n. The walk stops once it holds n owners or every node, and dedupes
// against its own short result, so a lookup allocates only that result.
func (r *Ring) OwnersKey(k string, n int) []string {
	n = min(n, r.nodes)
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
