package cluster

import (
	"fmt"
	"slices"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// Option configures a cluster client built with New. Each is a small
// function over the settings struct, they compose left to right, and
// invalid combinations surface as a single error from New rather than a
// panic mid-construction.
type Option func(*clientSettings)

// clientSettings is the accumulator New folds Options into.
type clientSettings struct {
	seeds    []string
	poolSize int // connections per node
	replicas int
	reg      *telemetry.Registry
	err      error
}

func (s *clientSettings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithSeeds sets the node addresses: the client's whole node set. At
// least one seed is required.
func WithSeeds(addrs ...string) Option {
	return func(s *clientSettings) {
		if len(addrs) == 0 {
			s.fail(fmt.Errorf("cluster: WithSeeds needs at least one address"))
			return
		}
		s.seeds = append([]string(nil), addrs...)
	}
}

// WithReplicas sets how many distinct ring owners hold each key: a Set
// writes every one of them and a Get fails over along them (default 2).
// At 2 or more, a client built after a node joined still finds every key
// written before: each key's old primary stays one of its owners.
func WithReplicas(n int) Option {
	return func(s *clientSettings) {
		if n < 1 {
			s.fail(fmt.Errorf("cluster: WithReplicas needs n >= 1, got %d", n))
			return
		}
		s.replicas = n
	}
}

// WithPoolSize sets the per-node connection pool size (default 2: the
// client fans out across nodes, so per-node pools stay small).
func WithPoolSize(n int) Option {
	return func(s *clientSettings) {
		if n < 1 {
			s.fail(fmt.Errorf("cluster: WithPoolSize needs n >= 1, got %d", n))
			return
		}
		s.poolSize = n
	}
}

// WithMetrics routes the client's telemetry into reg.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *clientSettings) { s.reg = reg }
}

// New builds a cluster client from functional options. The minimal call is
//
//	c, err := cluster.New(cluster.WithSeeds("host:7461"))
//
// which routes to that one node; WithReplicas tunes placement and
// failover. Pooled connections have no deadline. Construction never
// dials: pools are lazy, so a client can be built while some (or all)
// nodes are down and traffic flows as they come up.
func New(opts ...Option) (*Client, error) {
	s := clientSettings{
		poolSize: 2,
		replicas: 2,
	}
	for _, opt := range opts {
		opt(&s)
	}
	if s.err != nil {
		return nil, s.err
	}
	if len(s.seeds) == 0 {
		return nil, fmt.Errorf("cluster: New requires WithSeeds")
	}
	ring, err := NewRing(ringPoints, s.seeds...) // rejects a duplicate seed
	if err != nil {
		return nil, err
	}
	pools := make(map[string]*kvserver.Pool, len(s.seeds))
	for _, node := range s.seeds {
		pools[node] = kvserver.NewPool(node, s.poolSize)
	}
	nodes := slices.Clone(s.seeds)
	slices.Sort(nodes)
	return &Client{replicas: s.replicas, tel: newClientTelemetry(s.reg), ring: ring, nodes: nodes, pools: pools}, nil
}
