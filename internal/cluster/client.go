package cluster

import (
	"errors"
	"fmt"
	"slices"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// ErrNoNodes is returned when every owner of a key failed: its pool
// could not reach the node (kvserver.ErrNodeDown among the reasons) or
// the op failed on the wire.
var ErrNoNodes = errors.New("cluster: no reachable node for key")

// clientTelemetry is the single registration site for the
// kv_failover_total family.
type clientTelemetry struct {
	rerouted  *telemetry.Counter
	exhausted *telemetry.Counter
}

func newClientTelemetry(reg *telemetry.Registry) clientTelemetry {
	reg.Describe("kv_failover_total", "cluster ops rerouted to a replica (rerouted) or failed on every candidate (exhausted)")
	return clientTelemetry{
		rerouted:  reg.Counter("kv_failover_total", telemetry.Labels{"result": "rerouted"}),
		exhausted: reg.Counter("kv_failover_total", telemetry.Labels{"result": "exhausted"}),
	}
}

// Client is a ring-aware multi-node cache client: sample IDs map to nodes
// via a consistent-hash Ring, each node is served by its own lazy-dialled
// kvserver.Pool, and operations fail over along the key's replica owners
// when a node is down. Each op makes one attempt per owner; a dead node's
// pool fails its ops at once for a backoff after each refused dial
// (kvserver.ErrNodeDown), so a dead node does not cost every op a failed
// dial. It satisfies the trainer's RemoteCache contract, so a training
// run degrades to backing storage — never errors out — when the whole
// cluster is unreachable.
//
// The node set is fixed at New: the seeds, each placed on the client's
// ring once. A dead node stays on the ring; the replica walk routes
// around it.
//
// The client is the one replicator: a Set writes every owner of the key
// at once, and a daemon stores what it is sent and nothing more. A Set
// that reached only some owners is safe: cache population is idempotent
// by construction (a sample ID always maps to the same payload), so an
// owner that missed the write can at worst miss, never serve a wrong
// value.
type Client struct {
	replicas int
	tel      clientTelemetry
	ring     *Ring
	nodes    []string // sorted
	pools    map[string]*kvserver.Pool
}

// Get fetches the cached payload for a sample ID from its replica owners,
// asking each in placement order until one has it. A node whose pool is
// backing off is skipped without touching the network. found=false with a
// nil error means every reachable owner answered and none had the value — a
// clean miss. An error means no owner could be reached at all. A lookup
// answered after an owner failed counts one reroute.
func (c *Client) Get(id int) (value []byte, found bool, err error) {
	k := key(id)
	var lastErr error
	reachable, failedBefore := false, false
	for _, node := range c.ring.OwnersKey(k, c.replicas) {
		err := c.pools[node].Do(func(kc *kvserver.Client) (err error) {
			value, found, err = kc.Get(k)
			return err
		})
		if err == nil {
			if failedBefore {
				c.tel.rerouted.Inc()
				failedBefore = false // count one reroute per op
			}
			if found {
				return value, true, nil
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
	// Every owner failed, and there is at least one (New requires a seed
	// and replicas >= 1), so lastErr is set.
	c.tel.exhausted.Inc()
	return nil, false, fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// Set stores the payload for a sample ID on every replica owner in one
// round trip: a SET goes out to each owner before any reply is read. It
// succeeds if at least one owner stored the value, and counts a reroute
// when that owner was not the key's primary. See the Client doc for why a
// write that reached only some owners is safe.
func (c *Client) Set(id int, payload []byte) error {
	k := key(id)
	owners := c.ring.OwnersKey(k, c.replicas)
	primary := owners[0]
	slices.Sort(owners) // the connection order: see setFrom
	errs := make([]error, len(owners))
	c.setFrom(owners, k, payload, errs)
	var lastErr error
	stored, primaryStored := false, false
	for i, err := range errs {
		if err != nil {
			lastErr = err
			continue
		}
		stored = true
		primaryStored = primaryStored || owners[i] == primary
	}
	if stored {
		if !primaryStored {
			c.tel.rerouted.Inc()
		}
		return nil
	}
	c.tel.exhausted.Inc()
	return fmt.Errorf("%w: %w", ErrNoNodes, lastErr)
}

// setFrom sends a SET of k down a pooled connection to owners[0], writes
// owners[1:] while it holds that connection, and only then reads
// owners[0]'s reply, so every SET is on the wire before any reply is
// awaited. errs[i] receives owners[i]'s outcome. Holding one node's
// connection while waiting for another's is safe because every Set takes
// them in one order, owners sorted: two Sets taking theirs in placement
// order could each hold the last connection of the node the other waits
// for.
func (c *Client) setFrom(owners []string, k string, payload []byte, errs []error) {
	if len(owners) == 0 {
		return
	}
	rest := func() { c.setFrom(owners[1:], k, payload, errs[1:]) }
	sent := false
	errs[0] = c.pools[owners[0]].Do(func(kc *kvserver.Client) error {
		sent = true
		p := kc.Pipeline()
		p.Set(k, payload)
		err := p.Send()
		rest()
		if err != nil {
			return err
		}
		res, err := p.Recv()
		if err != nil {
			return err
		}
		return res[0].Err
	})
	if !sent { // no connection: the others still get theirs
		rest()
	}
}

// Close shuts every per-node pool and returns their errors joined.
// Idempotent.
func (c *Client) Close() error {
	var err error
	for _, node := range c.nodes {
		err = errors.Join(err, c.pools[node].Close())
	}
	return err
}
