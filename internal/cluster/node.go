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
	// Capacity is the item budget of the node's LRU store; StartNode
	// rejects a value below 1.
	Capacity int
	// GossipEvery is how long the join loop waits before it retries a
	// greeting that went unanswered (default 500ms).
	GossipEvery time.Duration
	// Registry receives the embedded server's telemetry; nil means the
	// server keeps a private registry.
	Registry *telemetry.Registry
}

// peerTimeout bounds a greeting's dial, request and reply.
const peerTimeout = 10 * time.Second

// Node is one spiderkv cluster daemon: a kvserver.Server plus the member
// set it answers HELLO and NODES with. It implements kvserver.ClusterHooks.
//
// A node stores the SETs it is sent and nothing more: the client writes
// every ring owner of a key itself (see Client.Set), and a node moves no
// key and forwards no write. Membership only grows. It is learned once, at
// join: a node greets its seeds with HELLO <self>, and in the same round
// every member a reply names, so a joiner's first round registers it with
// every member its seeds know. A greeting that went unanswered is retried
// every GossipEvery; a member that greeted this node needs no greeting
// back. The join loop ends once every member has answered. A dead member
// stays listed: failure is the client's to route around, by its replica
// walk.
type Node struct {
	self  string
	every time.Duration
	srv   *kvserver.Server

	mu      sync.Mutex
	members map[string]bool // every member but self; true once it has answered or greeted

	done chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// StartNode binds opts.Listen, starts the daemon and returns once it is
// serving. Joining is asynchronous: the node answers clients immediately
// and greets its seeds in the background.
func StartNode(opts NodeOptions) (*Node, error) {
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: node listen %s: %w", opts.Listen, err)
	}
	n := &Node{
		self:    opts.Advertise,
		every:   opts.GossipEvery,
		members: make(map[string]bool),
		done:    make(chan struct{}),
	}
	if n.self == "" {
		n.self = ln.Addr().String()
	}
	if n.every <= 0 {
		n.every = 500 * time.Millisecond
	}
	for _, seed := range opts.Seeds {
		if seed != n.self {
			n.members[seed] = false
		}
	}
	if n.srv, err = kvserver.Serve(ln, opts.Capacity, opts.Registry, n); err != nil {
		return nil, err
	}
	n.wg.Add(1)
	go n.joinLoop()
	return n, nil
}

// Addr returns the address this node advertises to peers and clients.
func (n *Node) Addr() string { return n.self }

// Server exposes the embedded kvserver.
func (n *Node) Server() *kvserver.Server { return n.srv }

// Hello records the caller as a member that needs no greeting and returns
// this node's member list: the HELLO verb.
func (n *Node) Hello(addr string) []string {
	if addr != n.self {
		n.mu.Lock()
		n.members[addr] = true
		n.mu.Unlock()
	}
	return n.Nodes()
}

// Nodes returns the member list including self (sorted): the NODES verb.
func (n *Node) Nodes() []string {
	n.mu.Lock()
	out := make([]string, 0, len(n.members)+1)
	out = append(out, n.self)
	for m := range n.members {
		out = append(out, m)
	}
	n.mu.Unlock()
	sort.Strings(out)
	return out
}

// joinLoop runs greeting rounds, the first at once and each further one
// GossipEvery after the last, until every member has answered or Close.
func (n *Node) joinLoop() {
	defer n.wg.Done()
	for !n.greetRound() {
		select {
		case <-n.done:
			return
		case <-time.After(n.every):
		}
	}
}

// greetRound greets every member that has not answered and, in the same
// round, every member a reply names that this node did not know. It
// reports whether every member has now answered. The round ends because a
// member is appended only when it is new.
func (n *Node) greetRound() bool {
	n.mu.Lock()
	var pending []string
	for m, answered := range n.members {
		if !answered {
			pending = append(pending, m)
		}
	}
	n.mu.Unlock()

	left := 0
	for i := 0; i < len(pending); i++ {
		members, err := n.greet(pending[i])
		if err != nil {
			left++
			continue
		}
		n.mu.Lock()
		n.members[pending[i]] = true
		for _, m := range members {
			if _, known := n.members[m]; !known && m != n.self {
				n.members[m] = false
				pending = append(pending, m)
			}
		}
		n.mu.Unlock()
	}
	return left == 0
}

// greet sends HELLO <self> to addr on a connection of its own and returns
// the member list it replies with.
func (n *Node) greet(addr string) ([]string, error) {
	c, err := kvserver.Dial(addr, peerTimeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Hello(n.self)
}

// Close stops the join loop and shuts the embedded server, draining its
// sessions. Idempotent.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		n.closeErr = n.srv.Close()
	})
	return n.closeErr
}
