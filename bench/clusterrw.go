package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"spidercache/internal/xrand"
)

const (
	rwKeys     = 16384 // fits the default store: replication is not confounded with eviction
	rwValueLen = 3072
	rwWorkers  = 2      // closed loop: trainers each wait for their reply
	rwLimitUS  = 2000.0 // an op slower than this misses the SLO
	rwSetShare = 0.5    // of ops
)

// rwEnv is a cluster holding every key at version 1.
type rwEnv struct {
	clusterEnv
	ks *keyspace
	// version is each key's last acknowledged version. Worker w owns keys
	// [w*rwKeys/rwWorkers, (w+1)*rwKeys/rwWorkers) and is the only one to
	// touch their entries.
	version []uint32
}

func setupClusterRW(rc *runContext) (*rwEnv, error) {
	env := &rwEnv{
		clusterEnv: clusterEnv{fleet: rc.newFleet()},
		ks:         newKeyspace(rc.seed, rwKeys, rwValueLen), version: make([]uint32, rwKeys),
	}
	if err := env.boot(); err != nil {
		env.close()
		return nil, err
	}
	errs := make([]error, rwWorkers)
	var wg sync.WaitGroup
	for w := 0; w < rwWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, rwValueLen)
			for k := w * rwKeys / rwWorkers; k < (w+1)*rwKeys/rwWorkers; k++ {
				env.ks.fill(buf, k, 1)
				if err := env.client.Set(k, buf); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
				env.version[k] = 1
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// rwResult is what the workers measured over one phase.
type rwResult struct {
	elapsed    time.Duration
	gets, sets int64
	getHits    int64
	getD, setD time.Duration
	getUS      []float64
	failed     int64
	firstErr   string
	buckets    [][]float64 // every op's latency in µs, by 100 ms window
}

func (r *rwResult) ops() int64         { return r.gets + r.sets }
func (r *rwResult) opsPerSec() float64 { return float64(r.ops()) / r.elapsed.Seconds() }
func (r *rwResult) merge(o *rwResult) {
	r.gets += o.gets
	r.sets += o.sets
	r.getHits += o.getHits
	r.getD += o.getD
	r.setD += o.setD
	r.getUS = append(r.getUS, o.getUS...)
	r.failed += o.failed
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	for b := range o.buckets {
		r.buckets[b] = append(r.buckets[b], o.buckets[b]...)
	}
}

// runRW runs the closed loop for dur: each worker, on its own keys, writes
// the next version of a key or reads a key back and checks that it holds
// the last version the cluster acknowledged.
func (e *rwEnv) runRW(seed uint64, dur time.Duration) *rwResult {
	nb := windowCount(dur.Seconds())
	total := &rwResult{buckets: make([][]float64, nb)}
	parts := make([]*rwResult, rwWorkers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < rwWorkers; w++ {
		parts[w] = &rwResult{buckets: make([][]float64, nb)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := parts[w]
			rng := xrand.New(seed ^ uint64(w+1)<<40)
			lo, n := w*rwKeys/rwWorkers, rwKeys/rwWorkers
			buf := make([]byte, rwValueLen)
			fail := func(format string, a ...any) {
				res.failed++
				if res.firstErr == "" {
					res.firstErr = fmt.Sprintf(format, a...)
				}
			}
			for {
				t0 := time.Now()
				at := t0.Sub(start)
				if at >= dur {
					return
				}
				k := lo + rng.Intn(n)
				var d time.Duration
				if rng.Float64() < rwSetShare {
					e.ks.fill(buf, k, e.version[k]+1)
					err := e.client.Set(k, buf)
					d = time.Since(t0)
					res.sets++
					res.setD += d
					if err != nil {
						fail("Set key %d: %v", k, err)
						continue
					}
					e.version[k]++
				} else {
					v, found, err := e.client.Get(k)
					d = time.Since(t0)
					res.gets++
					res.getD += d
					res.getUS = append(res.getUS, float64(d)/float64(time.Microsecond))
					switch ver, ok := e.ks.verify(v, k); {
					case err != nil:
						fail("Get key %d: %v", k, err)
						continue
					case !found:
						fail("Get key %d: NOT_FOUND after an acknowledged Set", k)
						continue
					case !ok || ver != e.version[k]:
						fail("Get key %d: version %d (valid=%v), last acknowledged %d", k, ver, ok, e.version[k])
						continue
					}
					res.getHits++
				}
				b := min(int(at*time.Duration(nb)/dur), nb-1)
				res.buckets[b] = append(res.buckets[b], float64(d)/float64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func runClusterRW(rc *runContext) (*outcome, error) {
	env, setupS, err := setupMedian(func() (*rwEnv, error) { return setupClusterRW(rc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := &outcome{}
	count := func(r *rwResult) *rwResult {
		out.attempted += r.ops()
		out.failed += r.failed
		if r.failed > 0 {
			out.problem("%d of %d cluster ops failed: %s", r.failed, r.ops(), r.firstErr)
		}
		return r
	}
	count(env.runRW(rc.seed, rc.span(1.0/12))) // warm-up

	if !rc.trace {
		r := count(env.runRW(rc.seed+1, rc.span(1)))
		out.metrics = map[string]float64{
			"setup_s":      setupS,
			"peak_ops_s":   medianRate(r.buckets, rc.span(1).Seconds()/float64(len(r.buckets))),
			"epoch_s":      r.elapsed.Seconds(),
			"final_acc":    float64(r.ops()-r.failed) / float64(r.ops()),
			"hit_ratio":    float64(r.getHits) / float64(r.gets),
			"lat_p50_us":   summarizeWindows(r.buckets).P50,
			"slo_ok_ratio": shareWithin(r.buckets, rwLimitUS, int(r.ops())),
			"peak_rss_mb":  peakRSS(env.fleet),
		}
		return out, nil
	}

	tl := newTraceLog("cluster_rw", rc.seed)
	out.trace = tl
	pids := env.fleet.pids()
	before, err := scrapeAll(env.addrs)
	if err != nil {
		return nil, err
	}
	cpu0, self0 := cpuSecondsAll(pids), cpuSeconds(os.Getpid())
	span := func(name string, r *rwResult) {
		end := time.Now()
		tl.span(name, 0, end.Add(-r.elapsed), end, 0, r.ops())
	}
	plain := count(env.runRW(rc.seed+1, rc.span(0.5)))
	span("closed loop", plain)
	selfCPU := cpuSeconds(os.Getpid()) - self0
	stop := tl.startScraper(env.addrs, pids, time.Second)
	scraped := count(env.runRW(rc.seed+2, rc.span(0.5)))
	stop()
	span("closed loop+scrape", scraped)
	after, err := scrapeAll(env.addrs)
	if err != nil {
		return nil, err
	}

	m := rc.zeroLayerMetrics()
	kvLayerMetrics(m, before, after, cpuSecondsAll(pids)-cpu0, peakRSSAll(pids))
	clientLayerMetrics(m, env.reg)
	both := &rwResult{buckets: make([][]float64, len(plain.buckets))}
	both.merge(plain)
	both.merge(scraped)
	opLat := summarizeWindows(append(plain.buckets, scraped.buckets...))
	m["cluster.op_p50_us"] = opLat.P50
	m["cluster.op_p99_us"] = opLat.P99
	lat := summarize([][]float64{both.getUS})
	m["cluster.get_s"] = both.getD.Seconds()
	m["cluster.get_p50_us"] = lat.P50
	m["cluster.get_p99_us"] = lat.P99
	m["cluster.gets"] = float64(both.gets)
	m["cluster.get_hits"] = float64(both.getHits)
	m["cluster.set_s"] = both.setD.Seconds()
	m["cluster.sets"] = float64(both.sets)
	m["cluster.errors"] = float64(both.failed)
	m["loadgen.sent"] = float64(both.ops())
	m["loadgen.cpu_s"] = selfCPU
	m["loadgen.peak_share_of_core"] = selfCPU / plain.elapsed.Seconds()
	m["trace.overhead_pct"] = 100 * (1 - scraped.opsPerSec()/plain.opsPerSec())
	m["check.fail_ratio"] = out.failRatio()
	out.metrics = m
	return out, nil
}
