// Command spiderkv runs one node of a replicated spidercache cluster: a
// kvserver daemon wired into gossip membership, synchronous replica
// fan-out and background key migration (see internal/cluster.Node).
//
// Usage:
//
//	spiderkv                                  # single-node cluster on :7461
//	spiderkv -listen :7462 -join host:7461    # join an existing cluster
//	spiderkv -replicas 3 -capacity 1000000    # wider replication, bigger store
//	spiderkv -advertise 10.0.0.5:7461         # routable address behind NAT
//
// The first daemon bootstraps a cluster of one; each further daemon is
// pointed at any live member with -join and gossips its way in. Every
// member must agree on -replicas for placement to converge; the ring's 128
// virtual points per node are a constant that members and clients share.
// The peer pools that carry replication, rebalance and gossip keep
// kvserver.DefaultConfig's 4 connections and 10s timeout, and a peer is
// expelled after 3 failed gossip rounds in a row; every peer op is one
// attempt, and a failed push is counted, not retried. Clients connect with
// cluster.New(cluster.WithSeeds(...)), naming every member as a seed.
//
// The daemon exits on SIGINT/SIGTERM after a graceful close: gossip and
// migration stop, in-flight sessions drain, peer pools shut down.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

func main() {
	cfg := kvserver.DefaultConfig()
	fs := flag.NewFlagSet("spiderkv", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7461", "address to bind")
		advertise = fs.String("advertise", "", "address peers and clients dial to reach this node (default: the bound address)")
		join      = fs.String("join", "", "comma-separated addresses of existing members to join through")
		replicas  = fs.Int("replicas", 2, "distinct ring owners per key (replication factor; must match across the cluster)")
		gossip    = fs.Duration("gossip", 500*time.Millisecond, "membership gossip interval")
	)
	cfg.BindStoreFlags(fs)
	// ExitOnError makes Parse terminate the process on bad flags.
	fs.Parse(os.Args[1:])

	var seeds []string
	for _, s := range strings.Split(*join, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}

	reg := telemetry.NewRegistry()
	node, err := cluster.StartNode(cluster.NodeOptions{
		Listen:      *listen,
		Advertise:   *advertise,
		Seeds:       seeds,
		Replicas:    *replicas,
		Store:       cfg,
		GossipEvery: *gossip,
		Registry:    reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spiderkv:", err)
		os.Exit(1)
	}
	fmt.Printf("spiderkv: serving on %s (capacity=%d shards=%d replicas=%d gossip=%v)\n",
		node.Addr(), cfg.Capacity, node.Server().Shards(), *replicas, *gossip)
	if len(seeds) > 0 {
		fmt.Printf("spiderkv: joining via %s\n", strings.Join(seeds, ", "))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("spiderkv: %v, shutting down\n", s)
	if err := node.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "spiderkv: close:", err)
		os.Exit(1)
	}
}
