package cluster

import (
	"time"

	"spidercache/internal/kvserver"
)

// discoverLoop polls cluster membership until Close. It runs one round
// immediately so a client seeded with a single node learns the full
// topology before the first tick, then settles into the interval.
func (c *Client) discoverLoop() {
	defer c.discoveryWG.Done()
	ticker := time.NewTicker(c.discoverEvery)
	defer ticker.Stop()
	for {
		c.discoverOnce()
		select {
		case <-c.discoveryDone:
			return
		case <-ticker.C:
		}
	}
}

// discoverOnce asks every current node for its member list (the NODES
// gossip verb) and reconciles the client's node set with the union of the
// non-empty replies.
//
// Only non-empty replies count: a plain kvserver with no cluster hooks
// answers NODES with an empty list, and treating that as "the cluster has
// no members" would evict every node the first time the client polls a
// standalone server. And if no node answers at all, the round is dropped —
// a fully unreachable cluster is a reason to keep trying the nodes we
// know, not to forget them.
func (c *Client) discoverOnce() {
	c.mu.RLock()
	known := append([]string(nil), c.nodes...)
	peers := make([]*replica, len(known))
	for i, n := range known {
		peers[i] = c.peers[n]
	}
	c.mu.RUnlock()

	union := make(map[string]struct{})
	heard := false
	for _, r := range peers {
		var members []string
		err := r.call(func(kc *kvserver.Client) (err error) {
			members, err = kc.Nodes()
			return err
		})
		if err != nil || len(members) == 0 {
			continue
		}
		heard = true
		for _, m := range members {
			union[m] = struct{}{}
		}
	}
	if !heard {
		return
	}
	for m := range union {
		if hasNode(known, m) {
			continue
		}
		if err := c.addNode(m); err == nil {
			c.tel.added.Inc()
		}
	}
	for _, n := range known {
		if _, ok := union[n]; !ok {
			c.removeNode(n)
			c.tel.removed.Inc()
		}
	}
}

// hasNode reports whether node is in the sorted snapshot.
func hasNode(nodes []string, node string) bool {
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}
