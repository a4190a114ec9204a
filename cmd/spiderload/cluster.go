package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// clusterParams carries the flag values the cluster path consumes.
type clusterParams struct {
	seeds         []string
	nodes         int
	replicas      int
	conns         int
	valueSz       int
	getFrac       float64
	ngetMix       float64
	ngetThreshold float64
	embedDim      int
	embedClusters int
	keys          int
	zipfS         float64
	ops           int
	preload       bool
	seed          uint64
	timeout       time.Duration
	retries       int
	jsonOut       string
	store         kvserver.Config // -capacity, -shards of the booted daemons
}

// loadResult is the JSON summary the -json flag persists, with one schema
// for both the single-node and cluster paths so A/B tooling (BENCH_6.json,
// scripts/bench.sh) can diff runs field-for-field: mode tells them apart
// ("single" vs "cluster"), throughput/latency/hit-rate fields mean the
// same thing in both, and the cluster-only resilience counters are simply
// zero in a single-node run.
type loadResult struct {
	Mode          string   `json:"mode"`
	Nodes         []string `json:"nodes"`
	Replicas      int      `json:"replicas"`
	Ops           int      `json:"ops"`
	ElapsedSec    float64  `json:"elapsed_seconds"`
	OpsPerSec     float64  `json:"ops_per_sec"`
	MBPerSec      float64  `json:"mb_per_sec"`
	HitRatio      float64  `json:"hit_ratio"`
	NGetOps       int      `json:"nget_ops"`
	NGetExact     int      `json:"nget_exact"`
	NGetNear      int      `json:"nget_near"`
	NGetMiss      int      `json:"nget_miss"`
	NGetMeanDist  float64  `json:"nget_mean_dist"`
	P50Ms         float64  `json:"p50_ms"`
	P95Ms         float64  `json:"p95_ms"`
	P99Ms         float64  `json:"p99_ms"`
	MaxMs         float64  `json:"max_ms"`
	ClientErrors  int64    `json:"client_errors"`
	PoolRetries   int64    `json:"pool_retries"`
	Rerouted      int64    `json:"failover_rerouted"`
	Exhausted     int64    `json:"failover_exhausted"`
	NodesAdded    int64    `json:"discovery_added"`
	NodesRemoved  int64    `json:"discovery_removed"`
	FinalNodeSet  []string `json:"final_node_set"`
	FinalHealth   int      `json:"final_serving_nodes"`
	KeysPopulated int      `json:"keys_populated"`
}

// clusterMain drives a ring-aware cluster.Client — against externally
// running spiderkv daemons (-cluster host:port,...), in-process daemons
// it boots itself (-nodes N), or both. Ops are single GET/SETs (the
// cluster client routes per key, so windows don't pipeline); resilience
// comes from the client's per-node retries, breaker-gated failover and
// gossip discovery. Returns the process exit code: non-zero when any
// error reached a worker, because the whole point of a replicated cluster
// is that none do.
func clusterMain(p clusterParams) int {
	seeds := append([]string(nil), p.seeds...)
	var local []*cluster.Node
	defer func() {
		for _, n := range local {
			//lint:ignore errcheck best-effort teardown at process exit
			n.Close()
		}
	}()
	if p.nodes > 0 {
		cfg := p.store
		cfg.Timeout = p.timeout
		cfg.Retries = p.retries
		for i := 0; i < p.nodes; i++ {
			opts := cluster.NodeOptions{
				Listen:      "127.0.0.1:0",
				Replicas:    p.replicas,
				Store:       cfg,
				GossipEvery: 100 * time.Millisecond,
			}
			if len(local) > 0 {
				opts.Seeds = []string{local[0].Addr()}
			}
			n, err := cluster.StartNode(opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spiderload: start node:", err)
				return 1
			}
			local = append(local, n)
			seeds = append(seeds, n.Addr())
		}
		fmt.Printf("booted %d in-process daemons: %s\n", p.nodes, strings.Join(seeds[len(seeds)-p.nodes:], ", "))
	}

	reg := telemetry.NewRegistry()
	client, err := cluster.New(
		cluster.WithSeeds(seeds...),
		cluster.WithReplicas(p.replicas),
		cluster.WithPoolSize(p.conns),
		cluster.WithDial(kvserver.DialOptions{DialTimeout: p.timeout, ReadTimeout: p.timeout, WriteTimeout: p.timeout}),
		cluster.WithRetry(kvserver.RetryOptions{Attempts: p.retries, Seed: p.seed}),
		cluster.WithBreaker(kvserver.BreakerOptions{}),
		cluster.WithDiscovery(250*time.Millisecond),
		cluster.WithMetrics(reg),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spiderload:", err)
		return 1
	}
	defer client.Close()

	fmt.Printf("spiderload cluster: seeds=%s replicas=%d conns=%d value=%dB get=%.2f keys=%d zipf=%.2f ops=%d\n",
		strings.Join(seeds, ","), p.replicas, p.conns, p.valueSz, p.getFrac, p.keys, p.zipfS, p.ops)

	payload := make([]byte, p.valueSz)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	var embs [][]float32
	if p.ngetMix > 0 {
		embs = buildEmbeddings(p.seed, p.keys, p.embedDim, p.embedClusters)
		fmt.Printf("nget mix: %.2f threshold=%.2f dim=%d clusters=%d\n",
			p.ngetMix, p.ngetThreshold, p.embedDim, p.embedClusters)
	}

	if p.preload {
		start := time.Now()
		if n := preloadCluster(client, p.keys, p.conns, payload, embs); n > 0 {
			fmt.Fprintf(os.Stderr, "spiderload: preload: %d keys failed\n", n)
			return 1
		}
		fmt.Printf("preloaded %d keys in %v\n", p.keys, time.Since(start).Round(time.Millisecond))
	}

	rtLat := newRTHistogram(reg)

	root := xrand.New(p.seed)
	results := make([]clusterWorkerResult, p.conns)
	var wg sync.WaitGroup
	opsPer := p.ops / p.conns
	start := time.Now()
	for w := 0; w < p.conns; w++ {
		cfg := clusterWorkerConfig{
			client:    client,
			ops:       opsPer,
			getFrac:   p.getFrac,
			ngetMix:   p.ngetMix,
			threshold: p.ngetThreshold,
			embs:      embs,
			keys:      p.keys,
			zipfS:     p.zipfS,
			payload:   payload,
			rng:       root.Split(),
			rtLat:     rtLat,
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runClusterWorker(cfg)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total clusterWorkerResult
	for _, r := range results {
		total.add(r.loadTotals)
		total.errors += r.errors
		if r.lastErr != nil {
			total.lastErr = r.lastErr
		}
	}

	snap := rtLat.Snapshot()
	counters := reg.Snapshot().Counters
	var poolRetries int64
	for name, v := range counters {
		if strings.HasPrefix(name, "kv_retries_total{") {
			poolRetries += v
		}
	}
	health := client.Health()
	serving := 0
	for _, h := range health {
		if h.Serving {
			serving++
		}
	}
	res := loadResult{
		Mode:          "cluster",
		Nodes:         seeds,
		Replicas:      p.replicas,
		P50Ms:         snap.P50 * 1000,
		P95Ms:         snap.P95 * 1000,
		P99Ms:         snap.P99 * 1000,
		MaxMs:         snap.Max * 1000,
		ClientErrors:  total.errors,
		PoolRetries:   poolRetries,
		Rerouted:      counters[`kv_failover_total{result="rerouted"}`],
		Exhausted:     counters[`kv_failover_total{result="exhausted"}`],
		NodesAdded:    counters[`cluster_discovery_total{result="added"}`],
		NodesRemoved:  counters[`cluster_discovery_total{result="removed"}`],
		FinalNodeSet:  client.Nodes(),
		FinalHealth:   serving,
		KeysPopulated: p.keys,
	}
	res.fillTotals(total.loadTotals, elapsed.Seconds())

	fmt.Printf("ran %d ops in %v: %.0f ops/s, %.1f MB/s, hit %.1f%%\n",
		total.ops, elapsed.Round(time.Millisecond), res.OpsPerSec, res.MBPerSec, 100*res.HitRatio)
	if res.NGetOps > 0 {
		fmt.Printf("nget: %d ops (exact=%d near=%d miss=%d), mean near dist=%.4f\n",
			res.NGetOps, res.NGetExact, res.NGetNear, res.NGetMiss, res.NGetMeanDist)
	}
	fmt.Printf("per-op latency: p50=%s p95=%s p99=%s max=%s\n",
		fmtDur(snap.P50), fmtDur(snap.P95), fmtDur(snap.P99), fmtDur(snap.Max))
	fmt.Printf("resilience: client errors=%d, pool retries=%d, failover rerouted=%d exhausted=%d, discovery +%d/-%d, final nodes=%d (%d serving)\n",
		total.errors, poolRetries, res.Rerouted, res.Exhausted, res.NodesAdded, res.NodesRemoved, len(res.FinalNodeSet), serving)

	if p.jsonOut != "" {
		if err := writeJSON(p.jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "spiderload:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", p.jsonOut)
	}
	if total.errors > 0 {
		fmt.Fprintf(os.Stderr, "spiderload: %d client-visible errors (last: %v)\n", total.errors, total.lastErr)
		return 3
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// preloadCluster SETs every key once through the cluster client, fanned
// over `conns` goroutines; returns how many keys failed to land. With
// embeddings present each key's embedding is ESET too, so every owner's
// semantic index is warm before measurement.
func preloadCluster(client *cluster.Client, keys, conns int, payload []byte, embs [][]float32) int {
	var wg sync.WaitGroup
	fails := make([]int, conns)
	per := (keys + conns - 1) / conns
	for w := 0; w < conns; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > keys {
			hi = keys
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				if err := client.Set(id, payload); err != nil {
					fails[w]++
					continue
				}
				if embs != nil {
					if err := client.ESet(id, embs[id]); err != nil {
						fails[w]++
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, f := range fails {
		total += f
	}
	return total
}

type clusterWorkerConfig struct {
	client    *cluster.Client
	ops       int
	getFrac   float64
	ngetMix   float64
	threshold float64
	embs      [][]float32 // per-key embeddings; nil disables NGETs
	keys      int
	zipfS     float64
	payload   []byte
	rng       *xrand.Rand
	rtLat     *telemetry.Histogram
}

type clusterWorkerResult struct {
	loadTotals
	errors  int64
	lastErr error
}

// runClusterWorker is one closed-loop lane of single-key ops through the
// cluster client. Errors are counted, not fatal: the run's verdict is the
// final error count (zero on a healthy cluster, even through a node
// kill), and stopping at the first error would understate the damage.
func runClusterWorker(cfg clusterWorkerConfig) clusterWorkerResult {
	var res clusterWorkerResult
	zipf := xrand.NewZipf(cfg.rng, cfg.zipfS, cfg.keys)
	for res.ops < cfg.ops {
		id := zipf.Next()
		start := time.Now()
		switch {
		case cfg.rng.Float64() >= cfg.getFrac:
			err := cfg.client.Set(id, cfg.payload)
			cfg.rtLat.Observe(time.Since(start).Seconds())
			if err != nil {
				res.errors++
				res.lastErr = err
			} else {
				res.bytes += int64(len(cfg.payload))
			}
		case cfg.embs != nil && cfg.rng.Float64() < cfg.ngetMix:
			v, near, found, err := cfg.client.NGet(id, cfg.embs[id], cfg.threshold)
			cfg.rtLat.Observe(time.Since(start).Seconds())
			res.ngets++
			switch {
			case err != nil:
				res.errors++
				res.lastErr = err
				res.ngetMiss++
			case near != nil:
				res.ngetNear++
				res.ngetDist += near.Dist
				res.bytes += int64(len(v))
			case found:
				res.ngetExact++
				res.bytes += int64(len(v))
			default:
				res.ngetMiss++
			}
		default:
			v, found, err := cfg.client.Get(id)
			cfg.rtLat.Observe(time.Since(start).Seconds())
			res.gets++
			if err != nil {
				res.errors++
				res.lastErr = err
			} else if found {
				res.hits++
				res.bytes += int64(len(v))
			}
		}
		res.ops++
	}
	return res
}
