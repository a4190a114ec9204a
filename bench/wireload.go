package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"spidercache/internal/xrand"
)

// wireConfig describes a single-node raw-protocol workload.
type wireConfig struct {
	name       string
	capacity   int // spiderkv -capacity
	keys       int
	valueLen   int
	zipf       float64 // key skew; 0 = uniform
	writeShare float64 // share of requests that start a write
	semantic   bool    // reads are NGETs and every SET is followed by an ESET
	dim        int
	clusters   int
	sigma      float64
	threshold  float64
	refRate    float64 // open-loop reference rate, requests/s
	limitUS    float64 // latency limit at the reference rate
	warmUp     int     // requests of the measured mix sent before measuring
}

var wireGet = wireConfig{
	name: "wire_get", capacity: 16384, keys: 65536, valueLen: 3072,
	zipf: 0.99, writeShare: 0.05, refRate: 40000, limitUS: 1000,
	warmUp: 200000, // about a second of the closed loop
}

var wireNGet = wireConfig{
	name: "wire_nget", capacity: 4096, keys: 16384, valueLen: 3072,
	writeShare: 0.10, semantic: true, dim: 16, clusters: 64, sigma: 0.08, threshold: 0.3,
	// The reference rate is a fifth of what the closed loop reaches. At
	// twice that (8 000/s) a slow stretch of the host takes the server
	// close enough to its limit that queueing, not the server, sets the
	// median: measured over ten runs beside a neighbour busy a third of the
	// time, the median's spread was 37% at 8 000/s and 10% at 4 000/s.
	refRate: 4000, limitUS: 5000,
	// The index rebuilds once its dead entries outnumber the live ones,
	// here every ~4 100 evictions (0.068 per request): once as the warm-up
	// begins, because the preload ends three evictions short of it, and
	// next ~60 000 requests later. 48 000 requests of warm-up put that
	// rebuild in the middle of the reference step (24 000 requests at
	// run_seconds 12) whatever the speed of the machine, so that the step
	// holds the same one pause on every run, not none or one by luck.
	warmUp: 48000,
}

// ladder is the open-loop steps of the traced pass, as multiples of the
// reference rate.
var ladder = []float64{0.5, 1, 2, 4}

const (
	genConns  = 2  // connections, and so generator goroutine pairs, on the 2-core box
	genWindow = 16 // closed loop: requests in flight per connection
)

// wireTarget frames and verifies traffic for one wireConfig.
type wireTarget struct {
	cfg       wireConfig
	ks        *keyspace
	es        *embedSpace // nil unless semantic
	threshold string
}

func newWireTarget(cfg wireConfig, seed uint64) *wireTarget {
	t := &wireTarget{cfg: cfg, ks: newKeyspace(seed, cfg.keys, cfg.valueLen)}
	if cfg.semantic {
		t.es = newEmbedSpace(seed, cfg.keys, cfg.dim, cfg.clusters, cfg.sigma)
		t.threshold = strconv.FormatFloat(cfg.threshold, 'g', -1, 64)
	}
	return t
}

// frame is called from each connection's writer goroutine, so it keeps no
// shared scratch: the payload is built in place at the end of dst.
func (t *wireTarget) frame(dst []byte, kind opKind, key int) []byte {
	name := t.ks.names[key]
	switch kind {
	case opGet:
		return appendGet(dst, name)
	case opNGet:
		return appendNGet(dst, name, t.threshold, t.es.wire[key])
	case opESet:
		return appendESet(dst, name, t.es.wire[key])
	default:
		dst = appendSetHeader(dst, name, t.ks.valueLen)
		n := len(dst)
		dst = append(dst, t.ks.tail...)
		t.ks.stamp(dst[n:], key, 1)
		return append(dst, '\r', '\n')
	}
}

func (t *wireTarget) check(kind opKind, key int, rep *reply) (bool, error) {
	if rep.Kind == replyServerError {
		return false, fmt.Errorf("key %d: SERVER_ERROR %s", key, rep.Message)
	}
	switch kind {
	case opSet, opESet:
		if rep.Kind != replyStored {
			return false, fmt.Errorf("write of key %d answered with reply kind %d", key, rep.Kind)
		}
		return false, nil
	}
	switch rep.Kind {
	case replyNotFound:
		return false, nil
	case replyValue:
		if _, ok := t.ks.verify(rep.Body, key); !ok {
			return false, fmt.Errorf("VALUE for key %d is not that key's payload", key)
		}
		return true, nil
	case replyNear:
		if kind != opNGet {
			break
		}
		nb := t.ks.keyIndex(rep.NearKey)
		if nb < 0 || nb == key {
			return false, fmt.Errorf("NEAR for key %d names %q", key, rep.NearKey)
		}
		if nb%t.es.clusters != key%t.es.clusters {
			return false, fmt.Errorf("NEAR for key %d names key %d of another cluster", key, nb)
		}
		d := t.es.cosineDist(key, nb)
		if d > t.cfg.threshold+1e-6 || math.Abs(d-rep.NearDist) > 1e-4 {
			return false, fmt.Errorf("NEAR for key %d: key %d is at %.6f, reported %.6f, threshold %g", key, nb, d, rep.NearDist, t.cfg.threshold)
		}
		if _, ok := t.ks.verify(rep.Body, nb); !ok {
			return false, fmt.Errorf("NEAR for key %d does not carry key %d's payload", key, nb)
		}
		return true, nil
	}
	return false, fmt.Errorf("read of key %d answered with reply kind %d", key, rep.Kind)
}

// mixTraffic is the measured request stream of one connection.
type mixTraffic struct {
	cfg     wireConfig
	rng     *xrand.Rand
	keys    *xrand.Zipf
	pending int // key whose ESET must follow the SET just sent; -1 if none
}

func newMixTraffic(cfg wireConfig, rng *xrand.Rand) *mixTraffic {
	return &mixTraffic{cfg: cfg, rng: rng, keys: xrand.NewZipf(rng.Split(), cfg.zipf, cfg.keys), pending: -1}
}

func (m *mixTraffic) next() (opKind, int, bool) {
	if m.pending >= 0 {
		key := m.pending
		m.pending = -1
		return opESet, key, true
	}
	key := m.keys.Next()
	if m.rng.Float64() < m.cfg.writeShare {
		if m.cfg.semantic {
			m.pending = key
		}
		return opSet, key, true
	}
	if m.cfg.semantic {
		return opNGet, key, true
	}
	return opGet, key, true
}

// firstN ends a request stream after n requests: a phase of a fixed
// amount of work, not of a fixed length.
type firstN struct {
	tr   traffic
	left int
}

func (f *firstN) next() (opKind, int, bool) {
	if f.left <= 0 {
		return 0, 0, false
	}
	f.left--
	return f.tr.next()
}

// preloadTraffic stores keys [pos, hi) once each, with their embeddings in
// a semantic key space.
type preloadTraffic struct {
	semantic bool
	pos, hi  int
	eset     bool // the next op is the ESET of key pos
}

func (p *preloadTraffic) next() (opKind, int, bool) {
	if p.eset {
		p.eset = false
		p.pos++
		return opESet, p.pos - 1, true
	}
	if p.pos >= p.hi {
		return 0, 0, false
	}
	if p.semantic {
		p.eset = true
		return opSet, p.pos, true
	}
	p.pos++
	return opSet, p.pos - 1, true
}

// getTraffic reads uniformly: the probe that puts the server's GET handler
// time next to its NGET handler time on the same store.
type getTraffic struct {
	rng  *xrand.Rand
	keys int
}

func (g *getTraffic) next() (opKind, int, bool) { return opGet, g.rng.Intn(g.keys), true }

// wireEnv is a booted, preloaded single-node server and the generator's
// connections to it.
type wireEnv struct {
	fleet *fleet
	addr  string
	tg    *wireTarget
	conns []*genConn
}

func (e *wireEnv) close() {
	for _, c := range e.conns {
		_ = c.nc.Close()
	}
	e.fleet.stop()
}

func setupWire(rc *runContext, cfg wireConfig) (*wireEnv, error) {
	env := &wireEnv{fleet: rc.newFleet()}
	d, err := env.fleet.startKV("", cfg.capacity)
	if err != nil {
		env.close()
		return nil, err
	}
	env.addr = d.addr
	env.tg = newWireTarget(cfg, rc.seed)
	per := (cfg.keys + genConns - 1) / genConns
	for i := 0; i < genConns; i++ {
		hi := min((i+1)*per, cfg.keys)
		c, err := dialGen(d.addr, &preloadTraffic{semantic: cfg.semantic, pos: i * per, hi: hi})
		if err != nil {
			env.close()
			return nil, err
		}
		env.conns = append(env.conns, c)
	}
	pre := runPhase(env.conns, env.tg, phase{name: "preload", window: 64})
	if pre.failed > 0 {
		env.close()
		return nil, fmt.Errorf("%s preload: %d of %d requests failed: %s", cfg.name, pre.failed, pre.sent, pre.firstErr)
	}
	return env, nil
}

// warmUp switches the connections to the measured mix and sends the
// configuration's warm-up requests in a closed loop. That fills the
// store's recency order and the server's buffers, and because it is
// counted in requests, not in seconds, it leaves the server in the same
// state before every measurement.
func (e *wireEnv) warmUp(cfg wireConfig, seed uint64) *phaseResult {
	rng := xrand.New(seed ^ 0x10ad)
	mixes := make([]traffic, len(e.conns))
	for i, c := range e.conns {
		mixes[i] = newMixTraffic(cfg, rng.Split())
		c.tr = &firstN{tr: mixes[i], left: cfg.warmUp / len(e.conns)}
	}
	r := runPhase(e.conns, e.tg, phase{name: "warm-up", window: genWindow})
	for i, c := range e.conns {
		c.tr = mixes[i]
	}
	return r
}

func runWire(rc *runContext, cfg wireConfig) (*outcome, error) {
	// An open-loop writer sleeps in nanosleep with its P still attached
	// until the runtime's monitor takes it back. With one P per writer and
	// none to spare, nothing would poll the network while both sleep, and
	// every reply would wait for the monitor (measured: p50 280µs instead
	// of 150µs, p99 in milliseconds at a tenth of the server's capacity).
	// So the wire workloads run with a P per writer plus one per reader.
	runtime.GOMAXPROCS(2 * genConns)
	env, setupS, err := setupMedian(func() (*wireEnv, error) { return setupWire(rc, cfg) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	out := &outcome{}
	out.count(env.warmUp(cfg, rc.seed)) // not part of any metric

	closed := func(name string, share float64) *phaseResult {
		r := runPhase(env.conns, env.tg, phase{name: name, dur: rc.span(share), window: genWindow})
		out.count(r)
		return r
	}
	open := func(mult, share float64) *phaseResult {
		rate := cfg.refRate * mult
		r := runPhase(env.conns, env.tg, phase{
			name: fmt.Sprintf("open %gx", mult), dur: rc.span(share), rate: rate, limitUS: cfg.limitUS,
		})
		out.count(r)
		return r
	}

	if !rc.trace {
		ref := open(1, 0.5)
		sat := closed("saturation", 0.5)
		out.metrics = map[string]float64{
			"setup_s":      setupS,
			"peak_ops_s":   sat.typicalOpsPerSec(),
			"epoch_s":      (ref.sending + sat.sending).Seconds(),
			"final_acc":    out.verifiedShare(),
			"hit_ratio":    ref.hitRatio(),
			"lat_p50_us":   summarizeWindows(ref.buckets).P50,
			"slo_ok_ratio": ref.sloOK(),
			"peak_rss_mb":  peakRSS(env.fleet),
		}
		return out, nil
	}

	// Traced pass: the whole ladder, then saturation without and with a
	// once-a-second METRICS scraper (the only tracing a wire workload has).
	tl := newTraceLog(cfg.name, rc.seed)
	out.trace = tl
	addrs := []string{env.addr}
	pids := env.fleet.pids()
	before, err := scrapeAll(addrs)
	if err != nil {
		return nil, err
	}
	cpu0, t0 := cpuSecondsAll(pids), time.Now()
	m := rc.zeroLayerMetrics()
	var steps []stepOutcome
	var reads, readHits int64
	for _, mult := range ladder {
		r := open(mult, 1.0/6)
		lat := summarizeWindows(r.buckets)
		tl.phaseSpan(r, lat)
		steps = append(steps, stepOutcome{
			rate: r.rate, p99US: lat.P99, limitUS: cfg.limitUS,
			lateRatio: r.lateRatio(), backlogEnd: r.backlogEnd, failed: r.failed,
		})
		reads += r.reads
		readHits += r.readHits
		m[fmt.Sprintf("loadgen.lat_p50_us.x%g", mult)] = lat.P50
		m[fmt.Sprintf("loadgen.lat_p99_us.x%g", mult)] = lat.P99
		if mult == 1 {
			m["loadgen.sent"] = float64(r.sent)
			m["loadgen.late_send_ratio"] = r.lateRatio()
			m["loadgen.max_lag_ms"] = float64(r.maxLag) / float64(time.Millisecond)
			m["loadgen.backlog_end"] = float64(r.backlogEnd)
			m["loadgen.slo_ok_ratio.x1"] = r.sloOK()
		}
	}
	m["loadgen.max_rate_ok_ops_s"] = maxRateOK(steps)
	plain := closed("saturation", 1.0/6)
	tl.phaseSpan(plain, summarizeWindows(plain.buckets))
	m["loadgen.cpu_s"] = plain.genCPU
	m["loadgen.peak_share_of_core"] = plain.genCPU / plain.elapsed.Seconds()

	stop := tl.startScraper(addrs, pids, time.Second)
	scraped := closed("saturation+scrape", 1.0/6)
	stop()
	tl.phaseSpan(scraped, summarizeWindows(scraped.buckets))
	m["trace.overhead_pct"] = 100 * (1 - scraped.opsPerSec()/plain.opsPerSec())

	after, err := scrapeAll(addrs)
	if err != nil {
		return nil, err
	}
	kvLayerMetrics(m, before, after, cpuSecondsAll(pids)-cpu0, peakRSSAll(pids))
	tl.span("measured window", 0, t0, time.Now(), 0, 0)

	if cfg.semantic {
		// Same server, same store: the GET handler's time next to NGET's.
		for _, c := range env.conns {
			c.tr = &getTraffic{rng: xrand.New(rc.seed ^ 0x6e7), keys: cfg.keys}
		}
		probe := runPhase(env.conns, env.tg, phase{name: "get probe", dur: rc.span(1.0 / 12), rate: cfg.refRate, limitUS: cfg.limitUS})
		out.count(probe)
		final, err := scrapeAll(addrs)
		if err != nil {
			return nil, err
		}
		get := 1e6 * meanNonZero(final, `kv_op_seconds{op="get",quantile="0.5"}`)
		m["kv.nget_minus_get_p50_us"] = m["kv.op_p50_us.nget"] - get
		m["hnsw.search_us_d16"] = hnswSearchUS(rc.seed)
	}
	if reads > 0 {
		m["check.hit_ratio_ladder"] = float64(readHits) / float64(reads)
	}
	m["check.fail_ratio"] = out.failRatio()
	out.metrics = m
	return out, nil
}
