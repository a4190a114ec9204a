package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// ErrNoNodes is returned when every candidate node for a key is
// unavailable (breaker open or transport failure on each).
var ErrNoNodes = errors.New("cluster: no reachable node for key")

// NodeHealth reports one node's serving state as seen by the client.
type NodeHealth struct {
	// Breaker is the node's circuit breaker state machine position.
	Breaker kvserver.BreakerState
	// Serving reports whether the client would actually send this node a
	// request right now. It is false not only when the breaker is open but
	// also when it is half-open with the probe quota exhausted — a state
	// in which every op fails fast exactly like open, which the bare
	// Breaker field used to paper over. Ops dashboards should alert on
	// !Serving, not on Breaker != BreakerClosed.
	Serving bool
}

// clientTelemetry is the single registration site for the
// kv_failover_total and cluster_discovery_total families and the
// cluster_client_nodes gauge.
type clientTelemetry struct {
	rerouted  *telemetry.Counter
	exhausted *telemetry.Counter
	added     *telemetry.Counter
	removed   *telemetry.Counter
	nodes     *telemetry.Gauge
}

func newClientTelemetry(reg *telemetry.Registry) clientTelemetry {
	reg.Describe("kv_failover_total", "cluster ops rerouted to a replica (rerouted) or failed on every candidate (exhausted)")
	reg.Describe("cluster_discovery_total", "client topology changes learned from gossip (nodes added/removed)")
	reg.Describe("cluster_client_nodes", "nodes the client currently routes to")
	return clientTelemetry{
		rerouted:  reg.Counter("kv_failover_total", telemetry.Labels{"result": "rerouted"}),
		exhausted: reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}),
		added:     reg.Counter("cluster_discovery_total", telemetry.Labels{"result": "added"}),
		removed:   reg.Counter("cluster_discovery_total", telemetry.Labels{"result": "removed"}),
		nodes:     reg.Gauge("cluster_client_nodes", nil),
	}
}

// Client is a ring-aware multi-node cache client: sample IDs map to nodes
// via a consistent-hash Ring, each node is served by its own
// kvserver.Pool (lazy-dialled, retrying, breaker-guarded), and operations
// fail over along the key's replica owners when a node is down or its
// breaker is open. It satisfies the trainer's RemoteCache contract, so a
// training run degrades to backing storage — never errors out — when the
// whole cluster is unreachable.
//
// Membership is live: with WithDiscovery enabled the client polls the
// cluster's NODES gossip verb and adds/removes nodes (and their pools and
// ring points) as daemons join, leave or die, so topology is discovered
// rather than configured. All ops are safe concurrently with membership
// changes: an op racing a node removal sees its pool close underneath it
// and fails over like any other node failure.
//
// Failing over a Set to a replica is safe even though the pool layer is
// conservative about mutation retries: cache population is idempotent by
// construction (a sample ID always maps to the same payload), so landing
// the value on a secondary owner can at worst duplicate a cache entry,
// never corrupt one.
type Client struct {
	pool     kvserver.Config // per-node pool template
	replicas int
	reg      *telemetry.Registry
	tel      clientTelemetry

	mu    sync.RWMutex
	ring  *Ring
	nodes []string // sorted
	pools map[string]*kvserver.Pool

	discoverEvery time.Duration
	discoveryDone chan struct{}
	discoveryWG   sync.WaitGroup
	closeOnce     sync.Once
}

// addNode places node on the ring and gives it a pool. No-op if present.
func (c *Client) addNode(node string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pools[node]; ok {
		return nil
	}
	if err := c.ring.Add(node); err != nil {
		return err
	}
	c.pools[node] = kvserver.NewPool(node, c.pool, c.reg)
	c.nodes = append(c.nodes, node)
	sort.Strings(c.nodes)
	c.tel.nodes.Set(float64(len(c.nodes)))
	return nil
}

// removeNode takes node off the ring and closes its pool. In-flight ops on
// the pool fail with ErrPoolClosed and fail over normally.
func (c *Client) removeNode(node string) {
	c.mu.Lock()
	pool, ok := c.pools[node]
	if ok {
		c.ring.Remove(node)
		delete(c.pools, node)
		kept := c.nodes[:0]
		for _, n := range c.nodes {
			if n != node {
				kept = append(kept, n)
			}
		}
		c.nodes = kept
		c.tel.nodes.Set(float64(len(c.nodes)))
	}
	c.mu.Unlock()
	if ok {
		// The pool is being retired; its close error is noise.
		pool.Close()
	}
}

// Ring exposes the placement ring (for tests and topology inspection).
func (c *Client) Ring() *Ring { return c.ring }

// Nodes returns the node set the client currently routes to (sorted).
func (c *Client) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// candidates returns the pools owning id, in placement order.
func (c *Client) candidates(id int) []*kvserver.Pool {
	owners := c.ring.Owners(id, c.replicas)
	c.mu.RLock()
	defer c.mu.RUnlock()
	pools := make([]*kvserver.Pool, 0, len(owners))
	for _, node := range owners {
		if pool, ok := c.pools[node]; ok {
			pools = append(pools, pool)
		}
	}
	return pools
}

// Get fetches the cached payload for a sample ID, trying each replica
// owner in placement order. A node with an open breaker is skipped
// without touching the network. found=false with a nil error means every
// reachable owner answered and none had the value — a clean miss. An
// error means no owner could be reached at all.
func (c *Client) Get(id int) (value []byte, found bool, err error) {
	var lastErr error
	reachable, failedBefore := false, false
	for _, pool := range c.candidates(id) {
		v, ok, err := pool.Get(key(id))
		if err == nil {
			if failedBefore {
				c.tel.rerouted.Inc()
				failedBefore = false // count one reroute per op
			}
			if ok {
				return v, true, nil
			}
			reachable = true
			continue // clean miss here; a replica may still have it
		}
		lastErr = err
		failedBefore = true
	}
	if reachable {
		return nil, false, nil
	}
	c.tel.exhausted.Inc()
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return nil, false, fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// NGet is Get with a semantic fallback (the NGET verb): each replica
// owner is tried in placement order, and a near miss — the owner
// answered but had neither the key nor a close-enough resident
// neighbor — falls through to the next replica exactly like a clean
// GET miss, since a replica may hold (or have a substitute for) what
// the primary evicted. found covers exact and near hits; near is
// non-nil only for substitutes.
func (c *Client) NGet(id int, emb []float32, threshold float64) (value []byte, near *kvserver.Near, found bool, err error) {
	var lastErr error
	reachable, failedBefore := false, false
	for _, pool := range c.candidates(id) {
		v, nr, ok, err := pool.NGet(key(id), emb, threshold)
		if err == nil {
			if failedBefore {
				c.tel.rerouted.Inc()
				failedBefore = false // count one reroute per op
			}
			if ok {
				return v, nr, true, nil
			}
			reachable = true
			continue
		}
		lastErr = err
		failedBefore = true
	}
	if reachable {
		return nil, nil, false, nil
	}
	c.tel.exhausted.Inc()
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return nil, nil, false, fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// ESet attaches the embedding for a sample ID on EVERY reachable
// replica owner, not just the first: semantic indexes are node-local
// (ESET has no server-side fan-out, unlike SET's RSET replication), so
// each owner that may later serve an NGET for this ring neighborhood
// needs its own copy. Re-indexing an embedding is idempotent, which is
// why the blanket fan-out is safe. An error means no owner took it.
func (c *Client) ESet(id int, emb []float32) error {
	var lastErr error
	landed := 0
	for _, pool := range c.candidates(id) {
		if err := pool.ESet(key(id), emb); err != nil {
			lastErr = err
			continue
		}
		landed++
	}
	if landed > 0 {
		return nil
	}
	c.tel.exhausted.Inc()
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// Set stores the payload for a sample ID on the first reachable replica
// owner. See the Client doc for why rerouting a cache Set is safe.
func (c *Client) Set(id int, payload []byte) error {
	var lastErr error
	for i, pool := range c.candidates(id) {
		err := pool.Set(key(id), payload)
		if err == nil {
			if i > 0 {
				c.tel.rerouted.Inc()
			}
			return nil
		}
		lastErr = err
	}
	c.tel.exhausted.Inc()
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// Health reports each node's breaker state and whether it is actually
// taking traffic (see NodeHealth.Serving).
func (c *Client) Health() map[string]NodeHealth {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]NodeHealth, len(c.nodes))
	for _, node := range c.nodes {
		b := c.pools[node].Breaker()
		out[node] = NodeHealth{Breaker: b.State(), Serving: b.Serving()}
	}
	return out
}

// Close stops discovery and shuts every per-node pool. Idempotent.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.discoveryDone) })
	c.discoveryWG.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, node := range c.nodes {
		if err := c.pools[node].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
