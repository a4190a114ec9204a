package cluster

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// NodeOptions configures one cluster daemon (see StartNode).
type NodeOptions struct {
	// Listen is the address to bind (e.g. "127.0.0.1:0").
	Listen string
	// Advertise is the address peers and clients should dial to reach this
	// node; empty means the bound listener address. Set it when the bind
	// address is not routable (e.g. listening on ":7461" behind NAT).
	Advertise string
	// Seeds are addresses of existing cluster members to join through. An
	// empty list bootstraps a new single-node cluster.
	Seeds []string
	// Replicas is how many distinct ring owners hold each key (default 2).
	// All members must agree on this for placement to converge.
	Replicas int
	// Capacity is the item budget of the node's LRU store; StartNode
	// rejects a value below 1.
	Capacity int
	// GossipEvery is the membership gossip interval (default 500ms).
	GossipEvery time.Duration
	// Registry receives the node's telemetry (and the embedded server's,
	// so METRICS exposes both); nil means the server keeps a private
	// registry and the node records nothing.
	Registry *telemetry.Registry
}

// deadAfter is how many consecutive failed gossip rounds expel a peer.
const deadAfter = 3

// A peer pool, which carries rebalance and gossip, holds
// peerConns connections, each bounding a dial, reply read or flush by
// peerTimeout.
const (
	peerConns   = 4
	peerTimeout = 10 * time.Second
)

func (o NodeOptions) withDefaults() NodeOptions {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.GossipEvery <= 0 {
		o.GossipEvery = 500 * time.Millisecond
	}
	return o
}

// nodeTelemetry is the single registration site for the cluster_members
// gauge and the cluster_membership_total, kv_migration_keys_total and
// kv_migration_rounds_total families.
type nodeTelemetry struct {
	members      *telemetry.Gauge
	joins        *telemetry.Counter
	leaves       *telemetry.Counter
	migrateOK    *telemetry.Counter
	migrateErr   *telemetry.Counter
	migrateTicks *telemetry.Counter
}

func newNodeTelemetry(reg *telemetry.Registry) nodeTelemetry {
	reg.Describe("cluster_members", "cluster members this node currently knows (including itself)")
	reg.Describe("cluster_membership_total", "membership changes observed by this node (event=join|leave)")
	reg.Describe("kv_migration_keys_total", "keys pushed to replica owners during rebalance (result=ok|error)")
	reg.Describe("kv_migration_rounds_total", "rebalance rounds run after membership changes")
	return nodeTelemetry{
		members:      reg.Gauge("cluster_members", nil),
		joins:        reg.Counter("cluster_membership_total", telemetry.Labels{"event": "join"}),
		leaves:       reg.Counter("cluster_membership_total", telemetry.Labels{"event": "leave"}),
		migrateOK:    reg.Counter("kv_migration_keys_total", telemetry.Labels{"result": "ok"}),
		migrateErr:   reg.Counter("kv_migration_keys_total", telemetry.Labels{"result": "error"}),
		migrateTicks: reg.Counter("kv_migration_rounds_total", nil),
	}
}

// Node is one spiderkv cluster daemon: a kvserver.Server wired into
// gossip membership and background key migration. It implements
// kvserver.ClusterHooks, so the embedded server calls back into it on
// HELLO/NODES (to gossip).
//
// # Replication
//
// A node stores the SETs it is sent and forwards none of them: the client
// replicates, writing every ring owner of a key at once (see Client.Set),
// so by the time its Set returns, the value is readable from every live
// owner. An owner that missed a write misses the key until a rebalance
// (see below) pushes it there.
//
// # Membership and migration
//
// Nodes gossip by sending HELLO <self> to each peer and merging the
// replied member lists. A round greets every member it first learns of
// from a reply before it ends, so a joiner's first round (run as soon as
// it starts) registers it with every member its seed transitively knows:
// the cluster has converged when that round ends. Rounds repeat every
// GossipEvery, which governs failure detection — a peer that fails
// deadAfter consecutive rounds is expelled — and retries a lost greeting.
// Every membership change kicks a rebalance round: the node scans its keys
// and pushes each to the key's current owners. Keys are never deleted by
// migration — an old owner keeps its copy until LRU evicts it — so a key
// readable before a join stays readable throughout (the client reads
// through all owners and an old owner remains one for any single join at
// Replicas >= 2).
type Node struct {
	opts NodeOptions
	self string
	srv  *kvserver.Server
	ring *Ring
	tel  nodeTelemetry

	mu    sync.RWMutex
	peers map[string]*kvserver.Pool
	fails map[string]int // consecutive gossip failures per peer

	kick chan struct{} // coalesced rebalance trigger
	done chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// StartNode binds opts.Listen, starts the daemon and returns once it is
// serving. Joining is asynchronous: the node answers clients immediately
// and learns the rest of the cluster through gossip with its seeds.
func StartNode(opts NodeOptions) (*Node, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(ringPoints)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: node listen %s: %w", opts.Listen, err)
	}
	self := opts.Advertise
	if self == "" {
		self = ln.Addr().String()
	}
	n := &Node{
		opts:  opts,
		self:  self,
		ring:  ring,
		tel:   newNodeTelemetry(opts.Registry),
		peers: make(map[string]*kvserver.Pool),
		fails: make(map[string]int),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	if err := ring.Add(self); err != nil {
		//lint:ignore errcheck the ring error is what the caller sees; the unused listener's close error is noise
		ln.Close()
		return nil, err
	}
	n.tel.members.Set(1)
	srv, err := kvserver.Serve(ln, opts.Capacity, opts.Registry, n)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	for _, seed := range opts.Seeds {
		if seed != self {
			n.addMember(seed)
		}
	}
	n.wg.Add(2)
	go n.gossipLoop()
	go n.rebalanceLoop()
	return n, nil
}

// Addr returns the address this node advertises to peers and clients.
func (n *Node) Addr() string { return n.self }

// Server exposes the embedded kvserver (for stats and tests).
func (n *Node) Server() *kvserver.Server { return n.srv }

// --- kvserver.ClusterHooks ---

// Hello records the caller as a member and returns this node's member
// list — the gossip exchange behind the HELLO verb.
func (n *Node) Hello(addr string) []string {
	if addr != "" && addr != n.self {
		n.addMember(addr)
	}
	return n.Nodes()
}

// Nodes returns the member list including self (sorted) — the NODES verb.
func (n *Node) Nodes() []string {
	n.mu.RLock()
	out := make([]string, 0, len(n.peers)+1)
	out = append(out, n.self)
	for p := range n.peers {
		out = append(out, p)
	}
	n.mu.RUnlock()
	sort.Strings(out)
	return out
}

// --- membership ---

// peerPool returns the pool for a member, or nil if the member vanished.
func (n *Node) peerPool(addr string) *kvserver.Pool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.peers[addr]
}

// addMember registers a newly heard-of member: ring points, a lazy peer
// pool, a join event and a rebalance kick. It returns the new member's
// pool, or nil for a known member (a no-op).
func (n *Node) addMember(addr string) *kvserver.Pool {
	n.mu.Lock()
	if _, ok := n.peers[addr]; ok || addr == n.self {
		n.mu.Unlock()
		return nil
	}
	pool := kvserver.NewPool(addr, peerConns, peerTimeout)
	// Add only fails on an empty name, which validNodeAddr rejects on
	// HELLO and readNodes in a NODES reply.
	n.ring.Add(addr)
	n.peers[addr] = pool
	n.fails[addr] = 0
	n.tel.members.Set(float64(len(n.peers) + 1))
	n.mu.Unlock()
	n.tel.joins.Inc()
	n.kickRebalance()
	return pool
}

// expelMember drops a peer that failed too many gossip rounds.
func (n *Node) expelMember(addr string) {
	n.mu.Lock()
	pool, ok := n.peers[addr]
	if ok {
		delete(n.peers, addr)
		delete(n.fails, addr)
		n.ring.Remove(addr)
		n.tel.members.Set(float64(len(n.peers) + 1))
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	// The pool is being retired; its close error is noise.
	pool.Close()
	n.tel.leaves.Inc()
	n.kickRebalance()
}

// gossipLoop runs a round immediately (so a seeded node joins fast), then
// every GossipEvery until Close.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opts.GossipEvery)
	defer ticker.Stop()
	for {
		n.gossipOnce()
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
	}
}

// gossipOnce sends HELLO <self> to every peer, merges replied member
// lists, and expels peers that keep failing. A member first learned from a
// reply is greeted within the same round (see the Node doc); the round
// ends because a member is appended only when addMember adds it. Network
// I/O happens outside the node mutex: membership is snapshotted first.
func (n *Node) gossipOnce() {
	n.mu.RLock()
	addrs := make([]string, 0, len(n.peers))
	pools := make([]*kvserver.Pool, 0, len(n.peers))
	for a, p := range n.peers {
		addrs = append(addrs, a)
		pools = append(pools, p)
	}
	n.mu.RUnlock()

	for i := 0; i < len(addrs); i++ {
		addr := addrs[i]
		var members []string
		err := pools[i].Do(func(c *kvserver.Client) error {
			var e error
			members, e = c.Hello(n.self)
			return e
		})
		if err != nil {
			if n.bumpFail(addr) {
				n.expelMember(addr)
			}
			continue
		}
		n.clearFail(addr)
		for _, m := range members {
			if pool := n.addMember(m); pool != nil {
				addrs = append(addrs, m)
				pools = append(pools, pool)
			}
		}
	}
}

// bumpFail counts a failed round; true means the peer hit deadAfter.
func (n *Node) bumpFail(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.peers[addr]; !ok {
		return false
	}
	n.fails[addr]++
	return n.fails[addr] >= deadAfter
}

func (n *Node) clearFail(addr string) {
	n.mu.Lock()
	if _, ok := n.peers[addr]; ok {
		n.fails[addr] = 0
	}
	n.mu.Unlock()
}

// --- migration ---

// kickRebalance schedules a rebalance round; kicks coalesce while one is
// pending or running, which is fine — a round always reads the current
// membership.
func (n *Node) kickRebalance() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// rebalanceLoop runs a migration round after each membership change.
func (n *Node) rebalanceLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case <-n.kick:
			n.rebalance()
		}
	}
}

// rebalance scans the local store and pushes every key to each of its
// current ring owners other than self. Nothing is deleted: an old owner
// keeps its copy (LRU reclaims the space), which is what closes the
// NOT_FOUND window during ownership handoff. Peek is used instead of Get
// so the scan neither perturbs LRU order nor inflates hit counters.
func (n *Node) rebalance() {
	n.tel.migrateTicks.Inc()
	for _, k := range n.srv.Keys() {
		select {
		case <-n.done:
			return
		default:
		}
		v, ok := n.srv.Peek(k)
		if !ok {
			continue // evicted since the scan; nothing to migrate
		}
		for _, owner := range n.ring.OwnersKey(k, n.opts.Replicas) {
			if owner == n.self {
				continue
			}
			pool := n.peerPool(owner)
			if pool == nil {
				continue
			}
			err := pool.Do(func(c *kvserver.Client) error { return c.Set(k, v) })
			if err != nil {
				n.tel.migrateErr.Inc()
				continue
			}
			n.tel.migrateOK.Inc()
		}
	}
}

// Close stops gossip and migration, shuts the embedded server (draining
// its sessions) and closes every peer pool. Idempotent.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		n.closeErr = n.srv.Close()
		n.mu.Lock()
		pools := make([]*kvserver.Pool, 0, len(n.peers))
		for _, p := range n.peers {
			pools = append(pools, p)
		}
		n.peers = make(map[string]*kvserver.Pool)
		n.fails = make(map[string]int)
		n.mu.Unlock()
		for _, p := range pools {
			if err := p.Close(); err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}
