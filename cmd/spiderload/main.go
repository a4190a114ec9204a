// Command spiderload is a closed-loop load generator for the kvserver
// cache tier: N connections issue a configurable GET/SET mix over a
// zipfian key population at a configurable pipeline depth, and the run
// reports sustained ops/s plus round-trip latency percentiles taken from
// the telemetry histograms.
//
// Usage:
//
//	spiderload                               # in-process server, defaults
//	spiderload -addr 127.0.0.1:7070          # against a running server
//	spiderload -conns 8 -pipeline 32         # deeper pipelining
//	spiderload -pipeline 1                   # one op per round trip (the
//	                                         # pre-batching serving path)
//	spiderload -batch 16                     # MGET/MSET batch verbs
//	spiderload -get 0.5 -value 8192 -zipf 0  # write-heavy, uniform keys
//	spiderload -capacity 4096 -shards 1      # smaller store, strict LRU
//	spiderload -json out.json                # persist the run summary
//	                                         # (same schema as cluster mode)
//	spiderload -metrics                      # server METRICS dump at exit
//	spiderload -fault-reset 0.01 -fault-partial 0.02
//	                                         # robustness run: the in-process
//	                                         # server's listener injects
//	                                         # faults; retries absorb them
//
// Closed loop means every connection keeps exactly one request window in
// flight and issues the next only after the previous reply lands, so the
// reported throughput is what the server actually sustains at that
// concurrency, not an open-loop arrival rate.
//
// With any -fault-* flag set, the in-process server's accepted connections
// run behind internal/faultnet: resets, partial writes, read/write errors
// and added latency hit the wire with the given per-op probabilities,
// seed-deterministically. The client side drives a retrying connection
// pool and re-issues failed request windows (the load is synthetic, so
// re-sending is always safe); a run succeeds only if every window
// eventually lands — faults are absorbed and reported, never surfaced.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"spidercache/internal/faultnet"
	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

func main() {
	// The server-side knobs (-capacity, -shards) come from the canonical
	// kvserver.Config so spiderload accepts exactly the flags spiderkv
	// does; they configure the in-process server (single-node mode) or the
	// booted daemons (-nodes cluster mode).
	storeCfg := kvserver.DefaultConfig()
	storeCfg.BindStoreFlags(flag.CommandLine)
	var (
		addr     = flag.String("addr", "", "server address; empty starts an in-process server")
		conns    = flag.Int("conns", 4, "concurrent client connections")
		pipeline = flag.Int("pipeline", 16, "requests per round trip (1 = no pipelining)")
		batch    = flag.Int("batch", 0, "use MGET/MSET with this many keys per command instead of pipelined GET/SET (0 = off)")

		ngetMix       = flag.Float64("nget-mix", 0, "fraction of reads issued as semantic NGETs instead of exact GETs (0 = off)")
		ngetThreshold = flag.Float64("nget-threshold", 0.3, "cosine-distance threshold for NGET near hits")
		embedDim      = flag.Int("embed-dim", 16, "embedding dimensionality for the NGET workload")
		embedClusters = flag.Int("embed-clusters", 64, "number of semantic clusters the key population is drawn from")

		valueSz = flag.Int("value", 3072, "payload bytes per value")
		getFrac = flag.Float64("get", 0.9, "fraction of operations that are GETs (rest are SETs)")
		keys    = flag.Int("keys", 16384, "key population size")
		zipfS   = flag.Float64("zipf", 0.99, "zipfian skew exponent over the key population (0 = uniform)")
		ops     = flag.Int("ops", 200000, "total operations across all connections")
		preload = flag.Bool("preload", true, "SET every key once before measuring")
		seed    = flag.Uint64("seed", 42, "random seed")
		timeout = flag.Duration("timeout", 10*time.Second, "per-connection dial/read/write timeout")
		metrics = flag.Bool("metrics", false, "print the server METRICS snapshot at exit")

		clusterSeeds = flag.String("cluster", "", "comma-separated spiderkv seed addresses; drives a ring-aware cluster client instead of one server")
		nodesN       = flag.Int("nodes", 0, "boot this many in-process cluster daemons and drive them (implies cluster mode)")
		replicas     = flag.Int("replicas", 2, "cluster replication factor (cluster mode)")
		jsonOut      = flag.String("json", "", "write a JSON result summary to this file (same schema in single-node and cluster mode)")

		retries       = flag.Int("retries", 8, "attempts per request window before a fault is client-visible (1 = no retries)")
		faultReset    = flag.Float64("fault-reset", 0, "per-op probability of a connection reset (in-process server only)")
		faultPartial  = flag.Float64("fault-partial", 0, "per-write probability of a torn partial write")
		faultReadErr  = flag.Float64("fault-read-err", 0, "per-read probability of an injected read error")
		faultWriteErr = flag.Float64("fault-write-err", 0, "per-write probability of an injected write error")
		faultLatency  = flag.Duration("fault-latency", 0, "added latency per network op")
		faultSeed     = flag.Uint64("fault-seed", 1, "seed for the deterministic fault streams")
	)
	flag.Parse()

	if *conns < 1 || *pipeline < 1 || *keys < 1 || *ops < 1 || *valueSz < 0 ||
		*getFrac < 0 || *getFrac > 1 || *batch < 0 || *retries < 1 ||
		*ngetMix < 0 || *ngetMix > 1 || *ngetThreshold < 0 ||
		*embedDim < 1 || *embedDim > kvserver.MaxEmbedDim || *embedClusters < 1 {
		fmt.Fprintln(os.Stderr, "spiderload: invalid flag value")
		os.Exit(2)
	}
	if *ngetMix > 0 && *batch > 0 {
		fmt.Fprintln(os.Stderr, "spiderload: -nget-mix needs the pipelined GET/SET path (drop -batch)")
		os.Exit(2)
	}
	if err := storeCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "spiderload:", err)
		os.Exit(2)
	}

	if *clusterSeeds != "" || *nodesN > 0 {
		if *addr != "" || *faultReset > 0 || *faultPartial > 0 || *faultReadErr > 0 || *faultWriteErr > 0 || *faultLatency > 0 {
			fmt.Fprintln(os.Stderr, "spiderload: cluster mode excludes -addr and -fault-* (kill a daemon instead)")
			os.Exit(2)
		}
		if *replicas < 1 {
			fmt.Fprintln(os.Stderr, "spiderload: invalid -replicas")
			os.Exit(2)
		}
		var seeds []string
		for _, s := range strings.Split(*clusterSeeds, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		os.Exit(clusterMain(clusterParams{
			seeds:         seeds,
			nodes:         *nodesN,
			replicas:      *replicas,
			conns:         *conns,
			valueSz:       *valueSz,
			getFrac:       *getFrac,
			ngetMix:       *ngetMix,
			ngetThreshold: *ngetThreshold,
			embedDim:      *embedDim,
			embedClusters: *embedClusters,
			keys:          *keys,
			zipfS:         *zipfS,
			ops:           *ops,
			preload:       *preload,
			seed:          *seed,
			timeout:       *timeout,
			retries:       *retries,
			jsonOut:       *jsonOut,
			store:         storeCfg,
		}))
	}

	faultCfg := faultnet.Config{
		Seed:             *faultSeed,
		Latency:          *faultLatency,
		PartialWriteProb: *faultPartial,
		ReadErrProb:      *faultReadErr,
		WriteErrProb:     *faultWriteErr,
		ResetProb:        *faultReset,
	}
	faultsOn := faultCfg != (faultnet.Config{Seed: *faultSeed})
	if faultsOn && *addr != "" {
		fmt.Fprintln(os.Stderr, "spiderload: -fault-* flags need the in-process server (drop -addr)")
		os.Exit(2)
	}
	if err := faultCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "spiderload:", err)
		os.Exit(2)
	}

	var faultReg *telemetry.Registry
	target := *addr
	if target == "" {
		opts := storeCfg.ServerOptions(nil)
		var srv *kvserver.Server
		var err error
		if faultsOn {
			faultReg = telemetry.NewRegistry()
			faultCfg.Registry = faultReg
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				fatal(lerr)
			}
			srv, err = kvserver.ServeOn(faultnet.WrapListener(ln, faultCfg), opts)
		} else {
			srv, err = kvserver.ServeWith("127.0.0.1:0", opts)
		}
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		target = srv.Addr()
		fmt.Printf("in-process server on %s (capacity=%d shards=%d)\n",
			target, storeCfg.Capacity, srv.Shards())
		if faultsOn {
			fmt.Printf("fault injection: reset=%.3f partial=%.3f read-err=%.3f write-err=%.3f latency=%v seed=%d\n",
				*faultReset, *faultPartial, *faultReadErr, *faultWriteErr, *faultLatency, *faultSeed)
		}
	}

	mode := fmt.Sprintf("pipeline=%d", *pipeline)
	if *batch > 0 {
		mode = fmt.Sprintf("batch=%d (MGET/MSET)", *batch)
	}
	// The NGET workload needs a per-key embedding; build them up front so
	// every worker (and the preload ESETs) sees the same clustered space.
	var embs [][]float32
	if *ngetMix > 0 {
		embs = buildEmbeddings(*seed, *keys, *embedDim, *embedClusters)
		mode += fmt.Sprintf(" nget-mix=%.2f threshold=%.2f dim=%d clusters=%d",
			*ngetMix, *ngetThreshold, *embedDim, *embedClusters)
	}
	fmt.Printf("spiderload: addr=%s conns=%d %s value=%dB get=%.2f keys=%d zipf=%.2f ops=%d\n",
		target, *conns, mode, *valueSz, *getFrac, *keys, *zipfS, *ops)

	dialOpts := kvserver.DialOptions{
		DialTimeout:  *timeout,
		ReadTimeout:  *timeout,
		WriteTimeout: *timeout,
	}
	payload := make([]byte, *valueSz)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	clientReg := telemetry.NewRegistry()
	pool, err := kvserver.NewPool(target, kvserver.PoolOptions{
		Size:        *conns,
		DialOptions: dialOpts,
		LazyDial:    true, // under faults the very first dial may be reset
		Retry:       kvserver.RetryOptions{Attempts: *retries, Seed: *seed},
		Name:        "load",
		Registry:    clientReg,
	})
	if err != nil {
		fatal(err)
	}
	defer pool.Close()

	if *preload {
		start := time.Now()
		if err := preloadKeys(pool, *retries, *keys, payload, embs); err != nil {
			fatal(err)
		}
		fmt.Printf("preloaded %d keys in %v\n", *keys, time.Since(start).Round(time.Millisecond))
	}

	rtLat := newRTHistogram(clientReg)

	root := xrand.New(*seed)
	var wg sync.WaitGroup
	results := make([]workerResult, *conns)
	opsPer := *ops / *conns
	start := time.Now()
	for w := 0; w < *conns; w++ {
		cfg := workerConfig{
			pool:      pool,
			attempts:  *retries,
			ops:       opsPer,
			pipeline:  *pipeline,
			batch:     *batch,
			getFrac:   *getFrac,
			ngetMix:   *ngetMix,
			threshold: *ngetThreshold,
			embs:      embs,
			keys:      *keys,
			zipfS:     *zipfS,
			payload:   payload,
			rng:       root.Split(),
			rtLat:     rtLat,
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runWorker(cfg)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total workerResult
	for _, r := range results {
		if r.err != nil && total.err == nil {
			total.err = r.err
		}
		total.add(r.loadTotals)
		total.windowRetries += r.windowRetries
	}
	if total.err != nil {
		fatal(total.err)
	}

	// One summarizer (fillTotals) derives every ratio for both the report
	// lines and the -json file, so the division guards live in one place.
	res := loadResult{
		Mode:          "single",
		Nodes:         []string{target},
		Replicas:      1,
		PoolRetries:   poolRetries(clientReg),
		FinalNodeSet:  []string{target},
		FinalHealth:   1,
		KeysPopulated: *keys,
	}
	res.fillTotals(total.loadTotals, elapsed.Seconds())
	fmt.Printf("ran %d ops in %v: %.0f ops/s, %.1f MB/s, hit %.1f%%\n",
		res.Ops, elapsed.Round(time.Millisecond), res.OpsPerSec, res.MBPerSec, 100*res.HitRatio)
	if res.NGetOps > 0 {
		fmt.Printf("nget: %d ops (exact=%d near=%d miss=%d), mean near dist=%.4f\n",
			res.NGetOps, res.NGetExact, res.NGetNear, res.NGetMiss, res.NGetMeanDist)
	}
	snap := rtLat.Snapshot()
	res.P50Ms, res.P95Ms, res.P99Ms, res.MaxMs = snap.P50*1000, snap.P95*1000, snap.P99*1000, snap.Max*1000
	fmt.Printf("round-trip latency (per request window of %d): p50=%s p95=%s p99=%s max=%s\n",
		windowOps(*pipeline, *batch), fmtDur(snap.P50), fmtDur(snap.P95), fmtDur(snap.P99), fmtDur(snap.Max))

	if faultsOn {
		fmt.Printf("faults injected: %s\n", faultSummary(faultReg))
		fmt.Printf("absorbed by: %d window retries, %d pool op retries; client-visible errors: 0\n",
			total.windowRetries, poolRetries(clientReg))
	}

	if *jsonOut != "" {
		// Same schema as cluster mode (see loadResult); a single-node run
		// reaches this point only with zero client-visible errors, and the
		// cluster-only resilience counters stay zero.
		if err := writeJSON(*jsonOut, res); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}

	if *metrics {
		var text string
		err := retryWindow(*retries, nil, func() error {
			return pool.Do(func(c *kvserver.Client) error {
				t, err := c.Metrics()
				if err == nil {
					text = t
				}
				return err
			})
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}
}

// faultSummary renders the injected-fault counters in a fixed kind order,
// reading through Snapshot so reporting never registers new series.
func faultSummary(reg *telemetry.Registry) string {
	counters := reg.Snapshot().Counters
	out := ""
	for _, kind := range []string{"reset", "partial_write", "read_error", "write_error", "short_read", "latency"} {
		n := counters[fmt.Sprintf("kv_faults_injected_total{kind=%q}", kind)]
		if n == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", kind, n)
	}
	if out == "" {
		return "none"
	}
	return out
}

// poolRetries sums kv_retries_total across ops for the load pool.
func poolRetries(reg *telemetry.Registry) int64 {
	var n int64
	for _, op := range []string{"get", "mget", "set", "mset", "del", "nget", "eset"} {
		n += reg.Snapshot().Counters[fmt.Sprintf("kv_retries_total{node=%q,op=%q}", "load", op)]
	}
	return n
}

// newRTHistogram is the single registration site for load_rt_seconds,
// shared by the single-server and cluster paths.
func newRTHistogram(reg *telemetry.Registry) *telemetry.Histogram {
	reg.Describe("load_rt_seconds", "client-observed round-trip latency per request window or operation")
	return reg.HistogramWindow("load_rt_seconds", 1<<15, nil)
}

func windowOps(pipeline, batch int) int {
	if batch > 0 {
		return batch
	}
	return pipeline
}

func fmtDur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spiderload:", err)
	os.Exit(1)
}

func key(i int) string { return fmt.Sprintf("load:%08d", i) }

// retryWindow runs fn up to attempts times, counting re-issues into res.
// The generator's windows are synthetic and self-contained, so re-sending
// a failed window is always safe — this is the layer that turns injected
// faults into retries instead of run failures.
func retryWindow(attempts int, res *workerResult, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && res != nil {
			res.windowRetries++
		}
		if err = fn(); err == nil {
			return nil
		}
	}
	return err
}

// preloadKeys SETs every key once (MSET batches through the retrying
// pool) so GET traffic starts warm. Chunks are kept small: under fault
// injection a window's failure probability grows with the bytes it moves,
// so a huge MSET could exhaust any fixed retry budget. The budget is also
// widened — preload is setup, not measurement, so patience is free. With
// embeddings present (an NGET run) every key's embedding is ESET in the
// same chunking, so the semantic index is warm before measurement too.
func preloadKeys(pool *kvserver.Pool, attempts, n int, payload []byte, embs [][]float32) error {
	const chunk = 64
	keys := make([]string, 0, chunk)
	values := make([][]byte, 0, chunk)
	ids := make([]int, 0, chunk)
	for i := 0; i < n; i++ {
		keys = append(keys, key(i))
		values = append(values, payload)
		ids = append(ids, i)
		if len(keys) == chunk || i == n-1 {
			k, v := keys, values
			if err := retryWindow(4*attempts, nil, func() error { return pool.MSet(k, v) }); err != nil {
				return err
			}
			if embs != nil {
				idc := ids
				err := retryWindow(4*attempts, nil, func() error {
					return pool.Do(func(c *kvserver.Client) error {
						p := c.Pipeline()
						for _, id := range idc {
							p.ESet(key(id), embs[id])
						}
						rs, err := p.Exec()
						if err != nil {
							return err
						}
						for _, r := range rs {
							if r.Err != nil {
								return r.Err
							}
						}
						return nil
					})
				})
				if err != nil {
					return err
				}
			}
			keys, values, ids = keys[:0], values[:0], ids[:0]
		}
	}
	return nil
}

type workerConfig struct {
	pool      *kvserver.Pool
	attempts  int
	ops       int
	pipeline  int
	batch     int
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

type workerResult struct {
	loadTotals
	windowRetries int
	err           error
}

// The per-slot op kinds a pipelined window is drawn from.
const (
	loadSet = iota
	loadGet
	loadNGet
)

// runWorker is one closed-loop lane: it keeps issuing request windows (a
// pipeline of GET/SET/NGETs, or one MGET/MSET batch) through the shared
// pool until its operation quota is spent. Each window's ops are drawn
// before sending, so a faulted window retries with identical contents.
func runWorker(cfg workerConfig) workerResult {
	var res workerResult
	zipf := xrand.NewZipf(cfg.rng, cfg.zipfS, cfg.keys)

	if cfg.batch > 0 {
		runBatchLoop(cfg, zipf, &res)
		return res
	}

	kinds := make([]uint8, cfg.pipeline)
	ids := make([]int, cfg.pipeline)
	for res.ops < cfg.ops {
		window := cfg.pipeline
		if remaining := cfg.ops - res.ops; window > remaining {
			window = remaining
		}
		sets := 0
		for i := 0; i < window; i++ {
			ids[i] = zipf.Next()
			switch {
			case cfg.rng.Float64() >= cfg.getFrac:
				kinds[i] = loadSet
				sets++
			case cfg.embs != nil && cfg.rng.Float64() < cfg.ngetMix:
				kinds[i] = loadNGet
			default:
				kinds[i] = loadGet
			}
		}
		var results []kvserver.Result
		err := retryWindow(cfg.attempts, &res, func() error {
			return cfg.pool.Do(func(c *kvserver.Client) error {
				p := c.Pipeline()
				for i := 0; i < window; i++ {
					switch kinds[i] {
					case loadGet:
						p.Get(key(ids[i]))
					case loadNGet:
						p.NGet(key(ids[i]), cfg.embs[ids[i]], cfg.threshold)
					default:
						p.Set(key(ids[i]), cfg.payload)
					}
				}
				start := time.Now()
				rs, err := p.Exec()
				cfg.rtLat.Observe(time.Since(start).Seconds())
				if err != nil {
					return err
				}
				for _, r := range rs {
					if r.Err != nil {
						return r.Err
					}
				}
				results = rs
				return nil
			})
		})
		if err != nil {
			res.err = err
			return res
		}
		for i, r := range results {
			switch kinds[i] {
			case loadGet:
				res.gets++
				if r.Found {
					res.hits++
				}
			case loadNGet:
				res.ngets++
				switch {
				case r.Near != nil:
					res.ngetNear++
					res.ngetDist += r.Near.Dist
				case r.Found:
					res.ngetExact++
				default:
					res.ngetMiss++
				}
			}
			if r.Value != nil {
				res.bytes += int64(len(r.Value))
			}
		}
		res.ops += window
		res.bytes += int64(sets * len(cfg.payload))
	}
	return res
}

// runBatchLoop drives the MGET/MSET verbs: each window is one batch
// command whose keys are all zipf draws. The pool already retries MGET
// (idempotent) and pre-write MSET failures; the window retry on top
// covers post-write MSET faults, which are safe to re-send here because
// the load is synthetic.
func runBatchLoop(cfg workerConfig, zipf *xrand.Zipf, res *workerResult) {
	keys := make([]string, cfg.batch)
	values := make([][]byte, cfg.batch)
	for i := range values {
		values[i] = cfg.payload
	}
	for res.ops < cfg.ops {
		window := cfg.batch
		if remaining := cfg.ops - res.ops; window > remaining {
			window = remaining
		}
		for i := 0; i < window; i++ {
			keys[i] = key(zipf.Next())
		}
		if cfg.rng.Float64() < cfg.getFrac {
			var got [][]byte
			var found []bool
			err := retryWindow(cfg.attempts, res, func() error {
				start := time.Now()
				g, f, err := cfg.pool.MGet(keys[:window]...)
				cfg.rtLat.Observe(time.Since(start).Seconds())
				if err == nil {
					got, found = g, f
				}
				return err
			})
			if err != nil {
				res.err = err
				return
			}
			res.gets += window
			for i := range found {
				if found[i] {
					res.hits++
					res.bytes += int64(len(got[i]))
				}
			}
		} else {
			err := retryWindow(cfg.attempts, res, func() error {
				start := time.Now()
				err := cfg.pool.MSet(keys[:window], values[:window])
				cfg.rtLat.Observe(time.Since(start).Seconds())
				return err
			})
			if err != nil {
				res.err = err
				return
			}
			res.bytes += int64(window * len(cfg.payload))
		}
		res.ops += window
	}
}
