// Package core implements SpiderCache itself — the paper's primary
// contribution (Section 4): the graph-based importance sampler, the
// two-section semantic-aware cache (Importance Cache + Homophily Cache) and
// the Elastic Cache Manager, composed behind the policy.Policy interface so
// the trainer can drive it exactly like the baselines.
//
// Per-batch flow (the paper's Algorithm 1):
//
//  1. Lookup serves each requested sample from the Importance Cache, else as
//     a substitute from the Homophily Cache's neighbour lists, else misses.
//  2. After the forward pass, OnBatchEnd upserts the batch embeddings into
//     the ANN index, recomputes each sample's global importance score
//     (Eq. 4), refreshes resident cache scores, and installs the batch's
//     highest-degree node (with its neighbour ID list) into the Homophily
//     Cache.
//  3. OnEpochEnd feeds σ(scores) and held-out accuracy to the Elastic Cache
//     Manager and resizes the two cache sections to the returned imp-ratio.
package core

import (
	"fmt"

	"spidercache/internal/cache"
	"spidercache/internal/elastic"
	"spidercache/internal/hnsw"
	"spidercache/internal/policy"
	"spidercache/internal/sampler"
	"spidercache/internal/semgraph"
	"spidercache/internal/telemetry"
)

// Options configures a SpiderCache instance.
type Options struct {
	// Capacity is the total cache budget in items, split between the two
	// sections by the imp-ratio.
	Capacity int
	// Labels are the per-sample class labels (graph scoring needs them).
	Labels []int
	// Payloads are per-sample stored sizes in bytes.
	Payloads []int
	// Graph tunes the importance-score algorithm; zero value means
	// semgraph.DefaultConfig.
	Graph semgraph.Config
	// HNSW tunes the ANN index; zero value means hnsw.DefaultConfig.
	HNSW hnsw.Config
	// Elastic tunes the cache manager; zero value means
	// elastic.DefaultConfig(TotalEpochs).
	Elastic elastic.Config
	// TotalEpochs is the planned training length T (Eq. 8).
	TotalEpochs int
	// DisableHomophily turns off the substitute cache — the
	// "SpiderCache-imp" ablation of Fig 14. The full budget then goes to
	// the Importance Cache.
	DisableHomophily bool
	// DisableElastic freezes the imp-ratio at Elastic.RStart — the static
	// strategy of Table 6's "90%" column.
	DisableElastic bool
	// SamplerSmoothing mixes the score weights with their mean before
	// drawing (see sampler.Multinomial); 0 means the default 0.75.
	SamplerSmoothing float64
	// Searcher overrides the ANN index (nil = HNSW built from Options.HNSW);
	// tests inject the exact brute-force searcher here.
	Searcher semgraph.NeighborSearcher
	// Metrics receives cache-internals telemetry (evictions, substitutions,
	// elastic imp_ratio/σ trajectories); nil disables recording.
	Metrics *telemetry.Registry
	// Workers bounds the per-batch scoring fan-out (Grapher.ScoreBatch):
	// 0 uses GOMAXPROCS, 1 forces serial scoring. Results are identical
	// either way; this only trades wall-clock for cores.
	Workers int
	Seed    uint64
}

func (o *Options) fillDefaults() {
	if o.Graph == (semgraph.Config{}) {
		o.Graph = semgraph.DefaultConfig()
	}
	if o.HNSW == (hnsw.Config{}) {
		o.HNSW = hnsw.DefaultConfig()
		o.HNSW.Seed = o.Seed + 101
	}
	if o.Elastic == (elastic.Config{}) {
		epochs := o.TotalEpochs
		if epochs < 1 {
			epochs = 1
		}
		o.Elastic = elastic.DefaultConfig(epochs)
	}
}

func (o *Options) validate() error {
	switch {
	case o.Capacity < 0:
		return fmt.Errorf("core: negative capacity %d", o.Capacity)
	case len(o.Labels) == 0:
		return fmt.Errorf("core: empty label set")
	case len(o.Payloads) != len(o.Labels):
		return fmt.Errorf("core: %d payloads for %d labels", len(o.Payloads), len(o.Labels))
	case o.TotalEpochs < 1:
		return fmt.Errorf("core: TotalEpochs must be >= 1, got %d", o.TotalEpochs)
	}
	return nil
}

// SpiderCache is the semantic-aware caching policy. It implements
// policy.Policy plus the ScoreStdReporter and RatioReporter extensions.
type SpiderCache struct {
	opts     Options
	grapher  *semgraph.Grapher
	sampler  *sampler.Multinomial
	imp      *cache.Importance
	hom      *cache.Homophily
	manager  *elastic.Manager
	impRatio float64
	payloads []int
	// subGate is the score ceiling for substitution, refreshed each epoch:
	// only samples the model has already learned well (score below the
	// mean) may be served by a homophily substitute; hard samples are
	// always fetched exactly so the training signal they carry is never
	// diluted.
	subGate float64

	// per-run counters for diagnostics
	homInstalls int

	tel spiderTelemetry
}

// spiderTelemetry groups the policy's instruments, resolved once at
// construction. With a nil registry these are shared no-ops, so record
// sites stay unconditional.
type spiderTelemetry struct {
	impEvictions  *telemetry.Counter
	homEvictions  *telemetry.Counter
	substitutions *telemetry.Counter
	homInstalls   *telemetry.Counter
	impRatio      *telemetry.Gauge
	scoreStd      *telemetry.Gauge
	impResident   *telemetry.Gauge
	homResident   *telemetry.Gauge

	// last exported cache eviction totals, for delta accounting
	lastImpEvict, lastHomEvict int64
}

func newSpiderTelemetry(reg *telemetry.Registry) spiderTelemetry {
	reg.Describe("cache_evictions_total", "cumulative evictions per cache section")
	reg.Describe("imp_ratio", "elastic Importance Cache share")
	reg.Describe("score_std", "stddev of global importance scores")
	return spiderTelemetry{
		impEvictions:  reg.Counter("cache_evictions_total", telemetry.Labels{"section": "importance"}),
		homEvictions:  reg.Counter("cache_evictions_total", telemetry.Labels{"section": "homophily"}),
		substitutions: reg.Counter("homophily_substitutions_total", nil),
		homInstalls:   reg.Counter("homophily_installs_total", nil),
		impRatio:      reg.Gauge("imp_ratio", nil),
		scoreStd:      reg.Gauge("score_std", nil),
		impResident:   reg.Gauge("cache_resident", telemetry.Labels{"section": "importance"}),
		homResident:   reg.Gauge("cache_resident", telemetry.Labels{"section": "homophily"}),
	}
}

// flushCacheTelemetry publishes eviction deltas and resident counts.
func (s *SpiderCache) flushCacheTelemetry() {
	if impEv := s.imp.Evictions(); impEv > s.tel.lastImpEvict {
		s.tel.impEvictions.Add(impEv - s.tel.lastImpEvict)
		s.tel.lastImpEvict = impEv
	}
	if homEv := s.hom.Evictions(); homEv > s.tel.lastHomEvict {
		s.tel.homEvictions.Add(homEv - s.tel.lastHomEvict)
		s.tel.lastHomEvict = homEv
	}
	s.tel.impResident.Set(float64(s.imp.Len()))
	s.tel.homResident.Set(float64(s.hom.Len()))
}

var (
	_ policy.Policy              = (*SpiderCache)(nil)
	_ policy.ScoreStdReporter    = (*SpiderCache)(nil)
	_ policy.RatioReporter       = (*SpiderCache)(nil)
	_ policy.SearchStatsReporter = (*SpiderCache)(nil)
)

// New builds a SpiderCache policy.
func New(opts Options) (*SpiderCache, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.fillDefaults()

	searcher := opts.Searcher
	if searcher == nil {
		idx, err := hnsw.New(opts.HNSW)
		if err != nil {
			return nil, err
		}
		searcher = idx
	}
	grapher, err := semgraph.New(opts.Graph, opts.Labels, searcher)
	if err != nil {
		return nil, err
	}
	grapher.SetWorkers(opts.Workers)
	grapher.SetMetrics(opts.Metrics)
	smp, err := sampler.NewMultinomial(len(opts.Labels), opts.Seed+7)
	if err != nil {
		return nil, err
	}
	smoothing := opts.SamplerSmoothing
	if smoothing == 0 {
		smoothing = 1.0
	}
	if err := smp.SetSmoothing(smoothing); err != nil {
		return nil, err
	}
	mgr, err := elastic.New(opts.Elastic)
	if err != nil {
		return nil, err
	}

	s := &SpiderCache{
		opts:     opts,
		grapher:  grapher,
		sampler:  smp,
		manager:  mgr,
		impRatio: opts.Elastic.RStart,
		payloads: opts.Payloads,
		tel:      newSpiderTelemetry(opts.Metrics),
	}
	s.tel.impRatio.Set(s.impRatio)
	if opts.DisableHomophily {
		s.impRatio = 1
	}
	impCap, homCap := s.split(opts.Capacity, s.impRatio)
	s.imp = cache.NewImportance(impCap)
	s.hom = cache.NewHomophily(homCap)
	return s, nil
}

// split divides the budget by ratio, keeping totals exact.
func (s *SpiderCache) split(capacity int, ratio float64) (impCap, homCap int) {
	impCap = int(float64(capacity)*ratio + 0.5)
	if impCap > capacity {
		impCap = capacity
	}
	return impCap, capacity - impCap
}

// Name returns "SpiderCache", or "SpiderCache-imp" for the
// importance-cache-only ablation.
func (s *SpiderCache) Name() string {
	if s.opts.DisableHomophily {
		return "SpiderCache-imp"
	}
	return "SpiderCache"
}

// EpochOrder draws the epoch's sample order from the global importance
// scores via the multinomial sampler (Algorithm 1's torch.multinomial step).
func (s *SpiderCache) EpochOrder(epoch int) []int { return s.sampler.EpochOrder(epoch) }

// Lookup implements the two-layer cache search of Fig 9(b): Importance Cache
// first, then the Homophily Cache's neighbour lists.
func (s *SpiderCache) Lookup(id int) policy.Lookup {
	if _, ok := s.imp.Get(id); ok {
		return policy.Lookup{Source: policy.SourceCache, ServedID: id}
	}
	if s.hom.Cap() > 0 {
		if _, ok := s.hom.Get(id); ok {
			// The request is itself a resident high-degree host.
			return policy.Lookup{Source: policy.SourceCache, ServedID: id}
		}
		if s.grapher.ScoreOf(id) < s.subGate {
			if host, ok := s.hom.LookupNeighbor(id); ok {
				s.tel.substitutions.Inc()
				return policy.Lookup{Source: policy.SourceSubstitute, ServedID: host.ID}
			}
		}
	}
	return policy.Lookup{Source: policy.SourceMiss, ServedID: id}
}

// OnMiss offers the fetched sample to the Importance Cache at its current
// global score. The min-heap admission rule realises Cases 2 and 4 of the
// paper's walkthrough: the sample displaces the least important resident
// only when it scores higher.
func (s *SpiderCache) OnMiss(id, size int) {
	s.imp.Put(cache.Item{ID: id, Size: size}, s.grapher.ScoreOf(id))
}

// OnBatchEnd runs the Graph-based IS stage (Algorithm 1 lines 14-22) as a
// batch: all embeddings are upserted into the ANN index first, then every
// sample's global score is recomputed over the frozen index — fanned across
// the worker pool by Grapher.ScoreBatch with results identical to serial.
func (s *SpiderCache) OnBatchEnd(_ int, fb []policy.Feedback) {
	if len(fb) == 0 {
		return
	}
	ids := make([]int, 0, len(fb))
	embs := make([][]float64, 0, len(fb))
	for _, f := range fb {
		ids = append(ids, f.ID)
		embs = append(embs, f.Embedding)
	}
	results, err := s.grapher.ScoreBatch(ids, embs)
	if err != nil {
		return // out-of-range IDs cannot occur from the trainer
	}
	maxDegree := -1
	var maxRes semgraph.ScoreResult
	for _, res := range results {
		s.sampler.SetWeight(res.ID, res.Score)
		s.imp.UpdateScore(res.ID, res.Score)
		if res.Degree() > maxDegree && len(res.CloseNeighbors) > 0 && !s.hom.Contains(res.ID) {
			maxDegree = res.Degree()
			maxRes = res
		}
	}
	// Install the batch's highest-degree node with its near-duplicate
	// neighbour ID list (the IDs it may substitute for).
	if !s.opts.DisableHomophily && s.hom.Cap() > 0 && maxDegree > 0 {
		s.hom.Put(cache.Item{ID: maxRes.ID, Size: s.payloads[maxRes.ID]}, maxRes.CloseNeighbors)
		s.homInstalls++
		s.tel.homInstalls.Inc()
	}
}

// OnEpochEnd drives the Elastic Cache Manager and resizes the two sections.
func (s *SpiderCache) OnEpochEnd(epoch int, accuracy float64) {
	defer s.flushCacheTelemetry()
	s.tel.scoreStd.Set(s.grapher.ScoreStd())
	if s.opts.DisableHomophily {
		return
	}
	s.subGate = 0.75 * s.grapher.ScoreMean()
	sigma := s.grapher.ScoreStd()
	ratio := s.impRatio
	if s.opts.DisableElastic {
		ratio = s.opts.Elastic.RStart
	} else {
		ratio = s.manager.Observe(epoch, sigma, accuracy)
	}
	if ratio != s.impRatio {
		s.impRatio = ratio
		impCap, homCap := s.split(s.opts.Capacity, ratio)
		s.imp.Resize(impCap)
		s.hom.Resize(homCap)
	}
	s.tel.impRatio.Set(s.impRatio)
}

// BackpropWeights trains the full batch: SpiderCache is an I/O-bound-regime
// design and never skips backprop.
func (s *SpiderCache) BackpropWeights([]policy.Feedback) []float64 { return nil }

// HasGraphIS reports true; the trainer charges the per-batch IS cost with
// pipeline overlap (Section 5).
func (s *SpiderCache) HasGraphIS() bool { return true }

// ScoreStd exposes the current σ of the global importance scores.
func (s *SpiderCache) ScoreStd() float64 { return s.grapher.ScoreStd() }

// ImpRatio exposes the live Importance Cache share.
func (s *SpiderCache) ImpRatio() float64 { return s.impRatio }

// Grapher exposes the score table for experiments (Fig 5/6c analyses).
func (s *SpiderCache) Grapher() *semgraph.Grapher { return s.grapher }

// ExportScores snapshots the global importance scores for reuse (NaN marks
// never-scored samples). Together with ImportScores it supports warm-starting
// a new training run of the same dataset — e.g. hyper-parameter retries —
// without re-learning sample importance from scratch.
func (s *SpiderCache) ExportScores() []float64 { return s.grapher.ExportScores() }

// ImportScores seeds the score table and sampler weights from a previous
// run's export, and refreshes the substitution gate.
func (s *SpiderCache) ImportScores(scores []float64) error {
	if err := s.grapher.ImportScores(scores); err != nil {
		return err
	}
	for id, sc := range scores {
		if sc == sc { // skip NaN
			s.sampler.SetWeight(id, sc)
		}
	}
	s.subGate = 0.75 * s.grapher.ScoreMean()
	return nil
}

// Manager exposes the elastic controller state for experiments.
func (s *SpiderCache) Manager() *elastic.Manager { return s.manager }

// HomophilyInstalls reports how many high-degree nodes were installed.
func (s *SpiderCache) HomophilyInstalls() int { return s.homInstalls }

// CacheLens reports current resident counts (importance, homophily).
func (s *SpiderCache) CacheLens() (imp, hom int) { return s.imp.Len(), s.hom.Len() }

// SearchStats reports the cumulative number of ANN SearchKNN calls the
// scoring path has issued; the trainer diffs it per epoch into
// EpochStats.SearchKNN. snapshotHits is always 0, kept for bench/ until
// the benchmark-only PR.
func (s *SpiderCache) SearchStats() (searches, snapshotHits int64) {
	return s.grapher.SearchCalls(), 0
}
