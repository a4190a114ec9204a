package main

import (
	"math"
	"time"

	"spidercache/internal/cluster"
	"spidercache/internal/core"
	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/hnsw"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/telemetry"
	"spidercache/internal/trainer"
)

// trainConfig describes a trainer.Run workload. Everything not named here
// is the repository's default: cache 20% of the dataset, batch 64, one
// worker, the ResNet18 cost profile, IS pipelining on.
type trainConfig struct {
	name   string
	policy string  // experiments registry name
	scale  float64 // CIFAR10-like dataset scale
	// epochsPerSecond sizes the run from --seconds; it is the pace of the
	// 2-core reference box, so a run there takes about --seconds.
	epochsPerSecond float64
	remote          bool    // fetch misses through a 3-node spiderkv cluster
	stepLimitUS     float64 // a batch slower than this misses the SLO
}

var trainLocal = trainConfig{
	name: "train_local", policy: "spider", scale: 1,
	epochsPerSecond: 15.0 / 13, stepLimitUS: 25_000,
}

var trainRemote = trainConfig{
	name: "train_remote", policy: "baseline", scale: 2,
	epochsPerSecond: 20.0 / 13, remote: true, stepLimitUS: 40_000,
}

const (
	cacheFraction = 0.2
	batchSize     = 64
	clusterNodes  = 3
	clientPool    = 2
)

func (c trainConfig) epochs(seconds float64) int {
	return max(1, int(seconds*c.epochsPerSecond+0.5))
}

// clusterEnv is a freshly booted 3-node spiderkv cluster (replicas 2,
// default capacity) and a cluster.Client on it, as a trainer would hold.
type clusterEnv struct {
	fleet  *fleet
	addrs  []string
	client *cluster.Client
	reg    *telemetry.Registry // the client's
}

func (e *clusterEnv) close() {
	if e.client != nil {
		_ = e.client.Close() // pools of killed daemons have nothing to flush
	}
	e.fleet.stop()
}

// boot starts the daemons, waits for membership to converge and builds the
// client. On error the caller closes e.
func (e *clusterEnv) boot() error {
	var err error
	if e.addrs, err = e.fleet.startCluster(clusterNodes, 0); err != nil {
		return err
	}
	e.reg = telemetry.NewRegistry()
	e.client, err = cluster.New(
		cluster.WithSeeds(e.addrs...), cluster.WithReplicas(2),
		cluster.WithPoolSize(clientPool), cluster.WithMetrics(e.reg))
	return err
}

// trainEnv is the dataset and, for the remote workload, a fresh cluster;
// without one, client stays nil and close only finds an empty fleet.
type trainEnv struct {
	clusterEnv
	ds *dataset.Dataset
}

func setupTrain(rc *runContext, cfg trainConfig) (*trainEnv, error) {
	env := &trainEnv{clusterEnv: clusterEnv{fleet: rc.newFleet()}}
	ds, err := dataset.New(dataset.CIFAR10Like(cfg.scale, rc.seed))
	if err != nil {
		return nil, err
	}
	env.ds = ds
	if cfg.remote {
		if err := env.boot(); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// trainPass is one trainer.Run and what was measured around it.
type trainPass struct {
	res      *trainer.Result
	wall     time.Duration
	pol      *steppedPolicy
	remote   *checkedRemote // nil without a remote cache
	searcher *timedSearcher // nil unless traced with the spider policy
	reg      *telemetry.Registry
}

func (p *trainPass) samples() int64 {
	var n int64
	for _, e := range p.res.Epochs {
		n += int64(e.Requests)
	}
	return n
}

// hitRatio is the share of sample requests served without a fetch from
// backing storage: by the policy's caches (the trainer's own hit ratio,
// averaged over epochs as the paper's tables do) or, where there is one,
// by the remote cache tier.
func (p *trainPass) hitRatio() float64 {
	h := p.res.AvgHitRatio()
	if p.remote != nil {
		h += float64(p.remote.hits) / float64(p.samples())
	}
	return h
}

func (p *trainPass) samplesPerSec() float64 { return float64(p.samples()) / p.wall.Seconds() }

// typical returns the median over epochs of the epoch's samples per second
// and of its mean batch step time in µs. The host's speed drifts over
// seconds; an epoch's mean follows the drift where a median over single
// steps flips between the fast and the slow mode of a round trip.
func (p *trainPass) typical() (samplesPerSec, stepUS float64) {
	var rates, steps []float64
	for i, e := range p.pol.epochs {
		rates = append(rates, float64(p.res.Epochs[i].Requests)/e.dur.Seconds())
		steps = append(steps, float64(e.dur.Microseconds())/float64(e.batches))
	}
	return median(rates), median(steps)
}

func (p *trainPass) searchKNN() (searches, snapshotHits int64) {
	for _, e := range p.res.Epochs {
		searches += e.SearchKNN
		snapshotHits += e.SnapshotHits
	}
	return
}

// runTrainPass trains once. Seeds are offset as internal/experiments does
// for its own runs. A non-nil tl makes it the traced pass.
func runTrainPass(cfg trainConfig, env *trainEnv, seed uint64, epochs int, tl *traceLog) (*trainPass, error) {
	ds := env.ds
	pass := &trainPass{}
	capacity := max(1, int(float64(ds.Len())*cacheFraction))
	params := experiments.PolicyParams{Dataset: ds, Capacity: capacity, Epochs: epochs, Seed: seed + 99}
	if tl != nil {
		pass.reg = telemetry.NewRegistry()
		params.Metrics = pass.reg
	}
	var inner policy.Policy
	var err error
	if tl != nil && cfg.policy == "spider" {
		// The registry's spider policy, built by hand so that its index can
		// be wrapped; the traced-equals-untraced check below proves the two
		// constructions are the same policy.
		hc := hnsw.DefaultConfig()
		hc.Seed = params.Seed + 101
		var ix *hnsw.Index
		if ix, err = hnsw.New(hc); err != nil {
			return nil, err
		}
		pass.searcher = &timedSearcher{inner: ix}
		inner, err = core.New(core.Options{
			Capacity: capacity, Labels: ds.Labels, Payloads: ds.Payload,
			TotalEpochs: epochs, Seed: params.Seed, Searcher: pass.searcher, Metrics: pass.reg,
		})
	} else {
		inner, err = experiments.BuildPolicy(cfg.policy, params)
	}
	if err != nil {
		return nil, err
	}
	model, err := nn.ProfileByName("ResNet18")
	if err != nil {
		return nil, err
	}
	tc := trainer.Config{
		Dataset: ds, Model: model, Epochs: epochs, BatchSize: batchSize,
		Workers: 1, PipelineIS: true, Metrics: pass.reg, Seed: seed + 17,
	}
	pass.pol = newSteppedPolicy(inner, tl)
	pass.pol.searcher = pass.searcher
	if env.client != nil {
		pass.remote = newCheckedRemote(env.client, ds.Payload, tl != nil)
		pass.pol.remote = pass.remote
		tc.RemoteCache = pass.remote
	}
	pass.pol.begin()
	t0 := time.Now()
	pass.res, err = trainer.Run(tc, pass.pol)
	pass.wall = time.Since(t0)
	if tl != nil {
		tl.span("trainer.Run", 0, t0, t0.Add(pass.wall), 0, 0)
	}
	return pass, err
}

func runTrain(rc *runContext, cfg trainConfig) (*outcome, error) {
	env, setupS, err := setupMedian(func() (*trainEnv, error) { return setupTrain(rc, cfg) })
	if err != nil {
		return nil, err
	}
	defer func() { env.close() }() // the traced pass replaces env
	out := &outcome{}

	if !rc.trace {
		pass, err := runTrainPass(cfg, env, rc.seed, cfg.epochs(rc.seconds), nil)
		if err != nil {
			return nil, err
		}
		out.countTrain(pass)
		steps := pass.pol.stepBuckets()
		rate, stepUS := pass.typical()
		out.metrics = map[string]float64{
			"setup_s":      setupS,
			"peak_ops_s":   rate,
			"epoch_s":      pass.res.TotalTime.Seconds() / float64(len(pass.res.Epochs)),
			"final_acc":    pass.res.FinalAcc,
			"hit_ratio":    pass.hitRatio(),
			"lat_p50_us":   stepUS,
			"slo_ok_ratio": shareWithin(steps, cfg.stepLimitUS, len(steps[0])),
			"peak_rss_mb":  peakRSS(env.fleet),
		}
		return out, nil
	}

	// Traced pass: the same run three times at a third of the length: as the
	// untraced pass does it, then with every call timed, then plain again.
	// The traced run must produce the same training as the plain ones, and
	// its speed against the mean of the two around it is the tracing
	// overhead (a run is faster the later it comes, as the heap the earlier
	// ones leave behind spaces the collector's cycles out; taking both sides
	// cancels that). One epoch is trained first and discarded, so that the
	// first run does not pay for the process's cold start. Each run must
	// meet the cluster as the untraced pass does: empty.
	fresh := func() error {
		if !cfg.remote {
			return nil
		}
		env.close()
		next, err := setupTrain(rc, cfg)
		if err != nil {
			return err
		}
		env = next
		return nil
	}
	epochs := cfg.epochs(rc.seconds / 3)
	plainRun := func(epochs int) (*trainPass, error) {
		if err := fresh(); err != nil {
			return nil, err
		}
		pass, err := runTrainPass(cfg, env, rc.seed, epochs, nil)
		if err == nil {
			out.countTrain(pass)
		}
		return pass, err
	}
	if _, err := plainRun(1); err != nil {
		return nil, err
	}
	plain, err := plainRun(epochs)
	if err != nil {
		return nil, err
	}
	if err := fresh(); err != nil {
		return nil, err
	}
	tl := newTraceLog(cfg.name, rc.seed)
	out.trace = tl
	pids := env.fleet.pids()
	var before, after []series
	if cfg.remote {
		if before, err = scrapeAll(env.addrs); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuSecondsAll(pids)
	traced, err := runTrainPass(cfg, env, rc.seed, epochs, tl)
	if err != nil {
		return nil, err
	}
	out.countTrain(traced)
	var kvCPU, kvRSS float64
	if cfg.remote {
		if after, err = scrapeAll(env.addrs); err != nil {
			return nil, err
		}
		kvCPU, kvRSS = cpuSecondsAll(pids)-cpu0, peakRSSAll(pids)
	}
	clientReg := env.reg
	again, err := plainRun(epochs)
	if err != nil {
		return nil, err
	}

	ps, pk := plain.searchKNN()
	ts, tk := traced.searchKNN()
	if plain.res.FinalAcc != traced.res.FinalAcc || plain.res.AvgHitRatio() != traced.res.AvgHitRatio() ||
		plain.res.TotalTime != traced.res.TotalTime || ps != ts || pk != tk {
		out.problem("traced pass differs from untraced: acc %v/%v hit %v/%v sim %v/%v searches %d/%d",
			plain.res.FinalAcc, traced.res.FinalAcc, plain.res.AvgHitRatio(), traced.res.AvgHitRatio(),
			plain.res.TotalTime, traced.res.TotalTime, ps, ts)
	}

	m := rc.zeroLayerMetrics()
	wall := traced.wall.Seconds()
	tot := traced.pol.total
	m["trainer.wall_s"] = wall
	m["trainer.batches"] = float64(tot.batches)
	stepLat := summarize(traced.pol.stepBuckets())
	m["trainer.step_p50_us"] = stepLat.P50
	m["trainer.step_p99_us"] = stepLat.P99
	m["core.lookup_s"] = tot.lookup.Seconds()
	m["core.onmiss_s"] = tot.onMiss.Seconds()
	m["core.onbatchend_s"] = tot.onBatchEnd.Seconds()
	m["core.epochorder_s"] = tot.epochOrder.Seconds()
	m["core.onepochend_s"] = tot.onEpochEnd.Seconds()
	m["core.hit_cache"] = float64(tot.hitCache)
	m["core.hit_sub"] = float64(tot.hitSub)
	m["core.miss"] = float64(tot.miss)
	last := traced.res.Epochs[len(traced.res.Epochs)-1]
	m["core.imp_ratio_final"] = last.ImpRatio
	m["core.score_std_final"] = last.ScoreStd
	m["semgraph.scorebatch_share"] = tot.onBatchEnd.Seconds() / wall
	m["semgraph.searchknn"] = float64(ts)
	m["semgraph.snapshot_hits"] = float64(tk)
	if s := traced.searcher; s != nil {
		m["hnsw.search_busy_s"] = time.Duration(s.searchNS.Load()).Seconds()
		m["hnsw.upsert_busy_s"] = time.Duration(s.upsertNS.Load()).Seconds()
		m["hnsw.searches"] = float64(s.searches.Load())
		m["hnsw.upserts"] = float64(s.upserts.Load())
		m["hnsw.search_us_d16"] = hnswSearchUS(rc.seed)
	}

	stepUS := nnStepUS(rc.seed, traced.res.FinalModel.Config(), batchSize)
	nnS := stepUS * float64(tot.batches) / 1e6
	m["nn.step_us"] = stepUS
	m["nn.est_share"] = nnS / wall
	snap := traced.reg.Snapshot()
	m["tensor.kernels_parallel"] = float64(snap.Counters[`tensor_kernels_total{mode="parallel"}`])
	m["tensor.kernels_serial"] = float64(snap.Counters[`tensor_kernels_total{mode="serial"}`])
	m["par.pooled_tasks"] = float64(snap.Counters[`pool_tasks_total{exec="pooled"}`])
	m["par.inline_tasks"] = float64(snap.Counters[`pool_tasks_total{exec="inline"}`])

	var load, compute, is, preproc time.Duration
	for _, e := range traced.res.Epochs {
		load += e.LoadTime
		compute += e.ComputeTime
		is += e.ISTime
		preproc += e.PreprocTime
	}
	m["sim.load_s"] = load.Seconds()
	m["sim.compute_s"] = compute.Seconds()
	m["sim.is_visible_s"] = is.Seconds()
	m["sim.preproc_s"] = preproc.Seconds()
	m["sim.epoch_s"] = traced.res.TotalTime.Seconds() / float64(epochs)

	policyS := (tot.lookup + tot.onMiss + tot.onBatchEnd + tot.epochOrder + tot.onEpochEnd + tot.backprop).Seconds()
	var remoteS float64
	if r := traced.remote; r != nil {
		remoteS = (r.getD + r.setD).Seconds()
		lat := summarize([][]float64{r.getUS})
		m["cluster.get_s"] = r.getD.Seconds()
		m["cluster.get_p50_us"] = lat.P50
		m["cluster.get_p99_us"] = lat.P99
		m["cluster.gets"] = float64(r.gets)
		m["cluster.get_hits"] = float64(r.hits)
		m["cluster.set_s"] = r.setD.Seconds()
		m["cluster.sets"] = float64(r.sets)
		m["cluster.errors"] = float64(r.errs)
		clientLayerMetrics(m, clientReg)
		kvLayerMetrics(m, before, after, kvCPU, kvRSS)
	}
	m["trainer.self_s"] = math.Max(0, wall-policyS-remoteS-nnS)
	m["trace.overhead_pct"] = 100 * (1 - 2*traced.samplesPerSec()/(plain.samplesPerSec()+again.samplesPerSec()))
	m["check.fail_ratio"] = out.failRatio()
	out.metrics = m
	return out, nil
}

// countTrain adds a pass's operations and failed output checks to the
// outcome: every sample served is an operation; with a remote cache every
// consultation is one too, and an error or a payload of the wrong length
// is a failure.
func (o *outcome) countTrain(p *trainPass) {
	o.attempted += p.samples()
	if r := p.remote; r != nil {
		o.attempted += r.gets + r.sets
		o.failed += r.errs + r.badLen
		if r.badLen > 0 {
			o.problem("%d remote payloads had the wrong length", r.badLen)
		}
		if r.errs > 0 {
			o.problem("%d remote cache calls failed", r.errs)
		}
	}
	if math.IsNaN(p.res.FinalAcc) {
		o.problem("final accuracy is NaN")
	}
}
