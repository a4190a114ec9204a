// Command spiderkv runs one node of a spidercache cluster: a kvserver
// daemon that answers HELLO and NODES from the member set it learned when
// it joined (see internal/cluster.Node). A daemon stores the SETs it is
// sent and forwards none: the client writes every owner of a key.
//
// Usage:
//
//	spiderkv                                  # single-node cluster on :7461
//	spiderkv -listen :7462 -join host:7461    # join an existing cluster
//	spiderkv -capacity 1000000                # bigger store
//	spiderkv -advertise 10.0.0.5:7461         # routable address behind NAT
//
// The first daemon bootstraps a cluster of one; each further daemon is
// pointed at any live member with -join, greets it and every member its
// reply names, and retries an unanswered greeting every -gossip until all
// have answered. Membership only grows: a daemon moves no key and expels
// no member, and a greeting is one connection with a 10s timeout.
// -replicas is accepted and ignored: placement is the client's
// (cluster.WithReplicas). Clients connect with
// cluster.New(cluster.WithSeeds(...)), naming every member as a seed.
//
// The daemon sets no runtime parameter: a request on a resident key
// allocates nothing, so the collector's default target serves it
// (DESIGN.md §6), and GOGC and GOMEMLIMIT act as in any Go program.
//
// The daemon exits on SIGINT/SIGTERM after a graceful close: the join
// loop stops and in-flight sessions drain.
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
	"spidercache/internal/telemetry"
)

func main() {
	fs := flag.NewFlagSet("spiderkv", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7461", "address to bind")
		advertise = fs.String("advertise", "", "address peers and clients dial to reach this node (default: the bound address)")
		join      = fs.String("join", "", "comma-separated addresses of existing members to join through")
		gossip    = fs.Duration("gossip", 500*time.Millisecond, "interval for retrying an unanswered join greeting")
		capacity  = fs.Int("capacity", 1<<16, "item capacity of the LRU store")
	)
	fs.Int("replicas", 2, "ignored, accepted so existing command lines still start: the client places keys (cluster.WithReplicas)")
	// ExitOnError makes Parse terminate the process on bad flags.
	fs.Parse(os.Args[1:])

	var seeds []string
	for _, s := range strings.Split(*join, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}

	// Caught before the announce line, which a reader may answer with SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	reg := telemetry.NewRegistry()
	node, err := cluster.StartNode(cluster.NodeOptions{
		Listen:      *listen,
		Advertise:   *advertise,
		Seeds:       seeds,
		Capacity:    *capacity,
		GossipEvery: *gossip,
		Registry:    reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spiderkv:", err)
		os.Exit(1)
	}
	fmt.Printf("spiderkv: serving on %s (capacity=%d shards=%d gossip=%v)\n",
		node.Addr(), *capacity, node.Server().Shards(), *gossip)
	if len(seeds) > 0 {
		fmt.Printf("spiderkv: joining via %s\n", strings.Join(seeds, ", "))
	}

	s := <-sig
	fmt.Printf("spiderkv: %v, shutting down\n", s)
	if err := node.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "spiderkv: close:", err)
		os.Exit(1)
	}
}
