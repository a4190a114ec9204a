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

// Options configures a SpiderCache instance. The algorithm's constants are
// not among them: scoring runs at semgraph's λ, α and neighborMax (Eqs.
// 2-4), the elastic manager at its γ, m and smoother (Eqs. 5-7), the ANN
// index at hnsw.DefaultConfig and the sampler at its fixed mean-mixing,
// and batch scoring uses up to GOMAXPROCS cores.
type Options struct {
	// Capacity is the total cache budget in items, split between the two
	// sections by the imp-ratio.
	Capacity int
	// Labels are the per-sample class labels (graph scoring needs them).
	Labels []int
	// Payloads are per-sample stored sizes in bytes.
	Payloads []int
	// Elastic holds the imp-ratio endpoints of Eq. 8; the zero value means
	// elastic.DefaultConfig (0.90 → 0.80). REnd = RStart is the static
	// split of Table 6's "90%" strategy.
	Elastic elastic.Config
	// TotalEpochs is the planned training length T (Eq. 8).
	TotalEpochs int
	// DisableHomophily turns off the substitute cache — the
	// "SpiderCache-imp" ablation of Fig 14. The full budget then goes to
	// the Importance Cache.
	DisableHomophily bool
	// Searcher overrides the ANN index (nil = HNSW at hnsw.DefaultConfig,
	// seeded Seed+101); tests inject the exact brute-force searcher here.
	Searcher semgraph.NeighborSearcher
	// Metrics receives the imp_ratio and score_std gauges, the split and
	// the σ the elastic manager works from; nil disables recording.
	Metrics *telemetry.Registry
	Seed    uint64
}

func (o *Options) fillDefaults() {
	if o.Elastic == (elastic.Config{}) {
		o.Elastic = elastic.DefaultConfig()
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

	tel spiderTelemetry
}

// spiderTelemetry groups the policy's instruments, resolved once at
// construction. With a nil registry these are shared no-ops, so record
// sites stay unconditional.
type spiderTelemetry struct {
	impRatio *telemetry.Gauge
	scoreStd *telemetry.Gauge
}

func newSpiderTelemetry(reg *telemetry.Registry) spiderTelemetry {
	reg.Describe("imp_ratio", "elastic Importance Cache share")
	reg.Describe("score_std", "stddev of global importance scores")
	return spiderTelemetry{
		impRatio: reg.Gauge("imp_ratio", nil),
		scoreStd: reg.Gauge("score_std", nil),
	}
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
		hc := hnsw.DefaultConfig()
		hc.Seed = opts.Seed + 101
		idx, err := hnsw.New(hc)
		if err != nil {
			return nil, err
		}
		searcher = idx
	}
	grapher, err := semgraph.New(opts.Labels, searcher)
	if err != nil {
		return nil, err
	}
	smp, err := sampler.NewMultinomial(len(opts.Labels), opts.Seed+7)
	if err != nil {
		return nil, err
	}
	mgr, err := elastic.New(opts.Elastic, opts.TotalEpochs)
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
// sample's global score is recomputed over the frozen index — forked
// through par.For by Grapher.ScoreBatch with results identical to serial.
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
	}
}

// OnEpochEnd drives the Elastic Cache Manager and resizes the two sections.
func (s *SpiderCache) OnEpochEnd(epoch int, accuracy float64) {
	s.tel.scoreStd.Set(s.grapher.ScoreStd())
	if s.opts.DisableHomophily {
		return
	}
	s.subGate = 0.75 * s.grapher.ScoreMean()
	ratio := s.manager.Observe(epoch, s.grapher.ScoreStd(), accuracy)
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

// SearchStats reports the cumulative number of ANN SearchKNN calls the
// scoring path has issued; the trainer diffs it per epoch into
// EpochStats.SearchKNN. snapshotHits is always 0, kept for bench/ until
// the benchmark-only PR.
func (s *SpiderCache) SearchStats() (searches, snapshotHits int64) {
	return s.grapher.SearchCalls(), 0
}
