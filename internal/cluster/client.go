package cluster

import (
	"errors"
	"fmt"
	"slices"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// ErrNoNodes is returned when every candidate node for a key is
// unavailable (breaker open or transport failure on each).
var ErrNoNodes = errors.New("cluster: no reachable node for key")

// errBreakerOpen is a candidate's failure when its breaker denied the op:
// the node was skipped without touching the network.
var errBreakerOpen = errors.New("cluster: circuit breaker open")

// clientTelemetry is the single registration site for the
// kv_failover_total family and the kv_breaker_state gauges.
type clientTelemetry struct {
	reg       *telemetry.Registry
	rerouted  *telemetry.Counter
	exhausted *telemetry.Counter
}

func newClientTelemetry(reg *telemetry.Registry) clientTelemetry {
	reg.Describe("kv_failover_total", "cluster ops rerouted to a replica (rerouted) or failed on every candidate (exhausted)")
	reg.Describe("kv_breaker_state", "per-node circuit breaker state (0=closed 1=half-open 2=open)")
	return clientTelemetry{
		reg:       reg,
		rerouted:  reg.Counter("kv_failover_total", telemetry.Labels{"result": "rerouted"}),
		exhausted: reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}),
	}
}

// breakerState returns node's kv_breaker_state gauge.
func (t clientTelemetry) breakerState(node string) *telemetry.Gauge {
	return t.reg.Gauge("kv_breaker_state", telemetry.Labels{"node": node})
}

// replica is one node as the client sees it: the pool its ops go through
// and the breaker that decides whether they are sent at all.
type replica struct {
	pool    *kvserver.Pool
	breaker *breaker
}

// call runs op on one of the node's pooled connections unless its
// breaker is open, and feeds the outcome back. Only transport failures
// count against the node: one that answered, however oddly, is up.
func (r *replica) call(op func(*kvserver.Client) error) error {
	if !r.breaker.allow() {
		return errBreakerOpen
	}
	err := r.pool.Do(op)
	r.breaker.record(err != nil && kvserver.IsTransportErr(err))
	return err
}

// Client is a ring-aware multi-node cache client: sample IDs map to nodes
// via a consistent-hash Ring, each node is served by its own lazy-dialled
// kvserver.Pool behind its own circuit breaker, and operations fail over
// along the key's replica owners when a node is down or its breaker is
// open. Each op makes one attempt per owner; the breaker is what keeps a
// dead node from costing every op a failed dial. It satisfies the
// trainer's RemoteCache contract, so a training run degrades to backing
// storage — never errors out — when the whole cluster is unreachable.
//
// The node set is fixed at New: the seeds, each placed on the client's
// ring once. A dead node stays on the ring; its breaker is what routes
// around it.
//
// Failing over a Set to a replica is safe even though the first owner may
// have applied it before failing: cache population is idempotent by
// construction (a sample ID always maps to the same payload), so landing
// the value on a secondary owner can at worst duplicate a cache entry,
// never corrupt one.
type Client struct {
	pool     kvserver.Config // per-node pool template
	replicas int
	tel      clientTelemetry
	ring     *Ring
	nodes    []string // sorted
	peers    map[string]*replica
}

// Nodes returns the node set the client routes to (sorted).
func (c *Client) Nodes() []string { return slices.Clone(c.nodes) }

// candidates returns the replicas owning id, in placement order.
func (c *Client) candidates(id int) []*replica {
	owners := c.ring.Owners(id, c.replicas)
	out := make([]*replica, 0, len(owners))
	for _, node := range owners {
		if r, ok := c.peers[node]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Get fetches the cached payload for a sample ID from its replica owners
// (see read).
func (c *Client) Get(id int) (value []byte, found bool, err error) {
	found, err = c.read(id, func(kc *kvserver.Client) (ok bool, err error) {
		value, ok, err = kc.Get(key(id))
		return ok, err
	})
	return value, found, err
}

// read runs op, a lookup that reports whether it found the value, on each
// replica owner of id in placement order until one finds it. A node with
// an open breaker is skipped without touching the network. found=false
// with a nil error means every reachable owner answered and none had the
// value — a clean miss. An error means no owner could be reached at all.
// A lookup answered after an owner failed counts one reroute.
func (c *Client) read(id int, op func(*kvserver.Client) (bool, error)) (found bool, err error) {
	var lastErr error
	reachable, failedBefore := false, false
	for _, r := range c.candidates(id) {
		err := r.call(func(kc *kvserver.Client) (err error) {
			found, err = op(kc)
			return err
		})
		if err == nil {
			if failedBefore {
				c.tel.rerouted.Inc()
				failedBefore = false // count one reroute per op
			}
			if found {
				return true, nil
			}
			reachable = true
			continue // clean miss here; a replica may still have it
		}
		lastErr = err
		failedBefore = true
	}
	if reachable {
		return false, nil
	}
	c.tel.exhausted.Inc()
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return false, fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// Set stores the payload for a sample ID on the first reachable replica
// owner. See the Client doc for why rerouting a cache Set is safe.
func (c *Client) Set(id int, payload []byte) error {
	var lastErr error
	for i, r := range c.candidates(id) {
		err := r.call(func(kc *kvserver.Client) error { return kc.Set(key(id), payload) })
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

// Close shuts every per-node pool. Idempotent.
func (c *Client) Close() error {
	var first error
	for _, node := range c.nodes {
		if err := c.peers[node].pool.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
