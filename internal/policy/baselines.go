package policy

import (
	"fmt"
	"sort"

	"spidercache/internal/cache"
	"spidercache/internal/sampler"
	"spidercache/internal/xrand"
)

// simple wraps a Basic cache with a sampler: the shape of Baseline (LRU +
// random sampling), the LFU variant of Fig 3(b), and CoorDL (static MinIO
// cache + random sampling).
type simple struct {
	name    string
	cache   cache.Basic
	sampler sampler.Sampler
}

// NewBaselineLRU is the paper's Baseline: LRU cache, PyTorch-default random
// sampling.
func NewBaselineLRU(n, capacity int, seed uint64) (Policy, error) {
	return newSimple("Baseline", n, seed, cache.NewLRU(capacity))
}

// NewLFU pairs an LFU cache with random sampling (Fig 3b's second
// conventional policy).
func NewLFU(n, capacity int, seed uint64) (Policy, error) {
	return newSimple("LFU", n, seed, cache.NewLFU(capacity))
}

// NewCoorDL models CoorDL's MinIO cache: fill once, never evict, random
// sampling. Hit ratio converges to capacity/n.
func NewCoorDL(n, capacity int, seed uint64) (Policy, error) {
	return newSimple("CoorDL", n, seed, cache.NewStatic(capacity))
}

func newSimple(name string, n int, seed uint64, c cache.Basic) (Policy, error) {
	u, err := sampler.NewUniform(n, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &simple{name: name, cache: c, sampler: u}, nil
}

func (p *simple) Name() string               { return p.name }
func (p *simple) EpochOrder(epoch int) []int { return p.sampler.EpochOrder(epoch) }

func (p *simple) Lookup(id int) Lookup {
	if _, ok := p.cache.Get(id); ok {
		return Lookup{Source: SourceCache, ServedID: id}
	}
	return Lookup{Source: SourceMiss, ServedID: id}
}

func (p *simple) OnMiss(id, size int)                  { p.cache.Put(cache.Item{ID: id, Size: size}) }
func (p *simple) OnBatchEnd(int, []Feedback)           {}
func (p *simple) OnEpochEnd(int, float64)              {}
func (p *simple) BackpropWeights([]Feedback) []float64 { return nil }
func (p *simple) HasGraphIS() bool                     { return false }

// Shade implements SHADE (Khan et al., FAST'23): per-mini-batch loss *rank*
// importance plus an importance-score cache. A sample's weight is its loss
// rank within the batch it was last seen in, (rank+1)/batchSize ∈ (0,1].
// This is exactly the weakness the paper's Motivation 1 targets: rank
// weights are only comparable within one batch — a batch of easy samples
// crowns its least-easy member with the same weight a genuinely hard sample
// gets elsewhere — so the global cache ordering SHADE builds from them is
// noisy.
type Shade struct {
	sampler  *sampler.Multinomial
	cache    *cache.Importance
	lastRank []float64 // batch-local rank weight per sample
}

// NewShade builds SHADE over n samples with the given cache capacity.
func NewShade(n, capacity int, seed uint64) (*Shade, error) {
	mn, err := sampler.NewMultinomial(n, seed)
	if err != nil {
		return nil, fmt.Errorf("SHADE: %w", err)
	}
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 // unseen samples carry top rank until observed
	}
	if err := mn.SetWeights(ranks); err != nil {
		return nil, fmt.Errorf("SHADE: %w", err)
	}
	return &Shade{
		sampler:  mn,
		cache:    cache.NewImportance(capacity),
		lastRank: ranks,
	}, nil
}

// Name returns "SHADE".
func (p *Shade) Name() string { return "SHADE" }

// EpochOrder draws a loss-weighted multinomial order.
func (p *Shade) EpochOrder(epoch int) []int { return p.sampler.EpochOrder(epoch) }

// Lookup consults the importance cache.
func (p *Shade) Lookup(id int) Lookup {
	if _, ok := p.cache.Get(id); ok {
		return Lookup{Source: SourceCache, ServedID: id}
	}
	return Lookup{Source: SourceMiss, ServedID: id}
}

// OnMiss offers the fetched sample at its last batch-local rank score.
func (p *Shade) OnMiss(id, size int) {
	p.cache.Put(cache.Item{ID: id, Size: size}, p.lastRank[id])
}

// OnBatchEnd ranks the batch by loss and records the rank weights as both
// sampling weights and cache scores.
func (p *Shade) OnBatchEnd(_ int, fb []Feedback) {
	idx := make([]int, len(fb))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return fb[idx[a]].Loss < fb[idx[b]].Loss })
	for rank, i := range idx {
		id := fb[i].ID
		w := float64(rank+1) / float64(len(fb))
		p.lastRank[id] = w
		p.sampler.SetWeight(id, w)
		p.cache.UpdateScore(id, w)
	}
}

// OnEpochEnd is a no-op: SHADE has no accuracy feedback loop.
func (p *Shade) OnEpochEnd(int, float64) {}

// BackpropWeights trains every sample (SHADE does not skip backprop).
func (p *Shade) BackpropWeights([]Feedback) []float64 { return nil }

// HasGraphIS reports false: SHADE's loss ranking is free byproduct of the
// forward pass.
func (p *Shade) HasGraphIS() bool { return false }

// The iCache reproduction's constants.
const (
	// iCacheHFrac is the share of capacity given to the H-sample
	// (importance) region; the rest is the randomly-replaced L region.
	iCacheHFrac = 0.7
	// iCacheSkipFrac caps the per-batch fraction of low-loss samples whose
	// backprop is skipped (the compute-bound IS of Jiang et al.).
	iCacheSkipFrac = 0.25
	// iCacheSubstituteProb bounds how often an eligible L-sample miss is
	// served by a substitute instead of remote storage. Without this bound
	// the substitution loop starves unseen samples entirely (a sample never
	// fetched is never trained, so it stays classified L forever).
	iCacheSubstituteProb = 0.30
)

// ICache reproduces iCache (Chen et al., HPCA'23): samples are split into
// important (H) and non-important (L) groups by loss; H-samples are cached
// by importance score, L-sample misses are served by random substitutes.
type ICache struct {
	name    string
	sampler *sampler.Uniform
	hCache  *cache.Importance
	// lCache is the randomly-replaced L region whose residents serve
	// L-sample misses as substitutes — the hit-boosting, accuracy-hurting
	// behaviour the paper observes (Fig 6b). Nil for the iCache-imp
	// ablation.
	lCache   *cache.RandomReplace
	lastLoss []float64
	// lossEMA tracks the recent loss level (exponential moving average);
	// using a decaying mean instead of a cumulative one lets starved
	// samples re-qualify as H once the rest of the dataset has learned
	// past them, preventing a permanent substitution/starvation loop.
	lossEMA float64
	emaInit bool
	rng     *xrand.Rand
	// pendingSub maps a substitute's ID to the IDs of the samples it stood
	// in for during the current batch. iCache's replacement happens inside
	// the data loader, below the sampler's bookkeeping: the requested
	// index "was trained", so its recorded loss is overwritten with the
	// substitute's (typically low) loss. This identity confusion is what
	// silently starves mis-classified L-samples and costs accuracy.
	pendingSub map[int][]int
}

// NewICache builds the full iCache policy.
func NewICache(n, capacity int, seed uint64) (*ICache, error) {
	return newICache(n, capacity, seed, true)
}

// NewICacheImp builds the importance-cache-only ablation (Fig 14's
// "iCache-imp").
func NewICacheImp(n, capacity int, seed uint64) (*ICache, error) {
	return newICache(n, capacity, seed, false)
}

func newICache(n, capacity int, seed uint64, substitute bool) (*ICache, error) {
	u, err := sampler.NewUniform(n, seed)
	if err != nil {
		return nil, fmt.Errorf("iCache: %w", err)
	}
	hCap := int(float64(capacity) * iCacheHFrac)
	name := "iCache"
	if !substitute {
		name = "iCache-imp"
		hCap = capacity // importance-only ablation uses the full budget
	}
	p := &ICache{
		name:       name,
		sampler:    u,
		hCache:     cache.NewImportance(hCap),
		lastLoss:   make([]float64, n),
		rng:        xrand.New(seed ^ 0x5b5b),
		pendingSub: make(map[int][]int),
	}
	if substitute {
		p.lCache = cache.NewRandomReplace(capacity-hCap, xrand.New(seed^0x1ca11e))
	}
	return p, nil
}

// Name returns "iCache" or "iCache-imp".
func (p *ICache) Name() string { return p.name }

// EpochOrder is a uniform permutation: compute-bound IS does not bias the
// sampling order, which is why its importance cache hits poorly (Fig 14).
func (p *ICache) EpochOrder(epoch int) []int { return p.sampler.EpochOrder(epoch) }

// meanLoss is the running H/L classification threshold (EMA of observed
// losses).
func (p *ICache) meanLoss() float64 { return p.lossEMA }

// Lookup checks the H region, then the L region, then — for L-classified
// samples under full iCache — serves a random substitute.
func (p *ICache) Lookup(id int) Lookup {
	if _, ok := p.hCache.Get(id); ok {
		return Lookup{Source: SourceCache, ServedID: id}
	}
	if p.lCache != nil {
		if _, ok := p.lCache.Get(id); ok {
			return Lookup{Source: SourceCache, ServedID: id}
		}
		// Substitute only samples that have been trained at least once and
		// classified L, and only with bounded probability (see
		// iCacheSubstituteProb).
		// Any sample whose recorded loss sits below the recent mean is
		// classified L — including samples never actually trained, whose
		// record is zero or was corrupted by an earlier substitution. This
		// is faithful to iCache's package loading, and it is the source of
		// its accuracy cost.
		if p.lastLoss[id] < p.meanLoss() && p.rng.Float64() < iCacheSubstituteProb {
			if it, ok := p.lCache.RandomResident(); ok {
				p.pendingSub[it.ID] = append(p.pendingSub[it.ID], id)
				return Lookup{Source: SourceSubstitute, ServedID: it.ID}
			}
		}
	}
	return Lookup{Source: SourceMiss, ServedID: id}
}

// OnMiss routes the fetched sample to the H or L region by loss.
func (p *ICache) OnMiss(id, size int) {
	item := cache.Item{ID: id, Size: size}
	if p.lCache == nil || p.lastLoss[id] >= p.meanLoss() {
		p.hCache.Put(item, p.lastLoss[id])
		return
	}
	p.lCache.Put(item)
}

// OnBatchEnd records losses for sampling, classification and cache scoring.
func (p *ICache) OnBatchEnd(_ int, fb []Feedback) {
	for _, f := range fb {
		p.lastLoss[f.ID] = f.Loss
		if !p.emaInit {
			p.lossEMA = f.Loss
			p.emaInit = true
		} else {
			p.lossEMA += 0.002 * (f.Loss - p.lossEMA)
		}
		p.hCache.UpdateScore(f.ID, f.Loss)
		// Replacement happened below the sampler's bookkeeping: the
		// requested samples are marked trained at the substitute's loss.
		if reqs := p.pendingSub[f.ID]; len(reqs) > 0 {
			for _, req := range reqs {
				p.lastLoss[req] = f.Loss
			}
			delete(p.pendingSub, f.ID)
		}
	}
}

// OnEpochEnd is a no-op: iCache has no accuracy feedback loop.
func (p *ICache) OnEpochEnd(int, float64) {}

// BackpropWeights skips backprop for samples the model has clearly already
// learned: loss below 85% of the recent mean loss level, capped at
// iCacheSkipFrac of the batch. Early in training nothing qualifies (all
// losses sit at the same high level), which is the natural warm-up of
// selective backprop;
// skipping by within-batch rank instead would train only the
// currently-worst samples and never converge on many-class tasks.
func (p *ICache) BackpropWeights(fb []Feedback) []float64 {
	if len(fb) == 0 || !p.emaInit {
		return nil
	}
	thr := 0.85 * p.lossEMA
	idx := make([]int, 0, len(fb))
	for i, f := range fb {
		if f.Loss < thr {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	if maxSkip := int(float64(len(fb)) * iCacheSkipFrac); len(idx) > maxSkip {
		sort.Slice(idx, func(a, b int) bool { return fb[idx[a]].Loss < fb[idx[b]].Loss })
		idx = idx[:maxSkip]
	}
	// No renormalisation over the kept set: selective backprop simply
	// drops the skipped samples' gradients. The resulting gradient bias is
	// part of the accuracy cost the paper attributes to compute-bound IS.
	w := make([]float64, len(fb))
	uniform := 1 / float64(len(fb))
	for i := range w {
		w[i] = uniform
	}
	for _, i := range idx {
		w[i] = 0
	}
	return w
}

// HasGraphIS reports false: iCache's IS is loss-based.
func (p *ICache) HasGraphIS() bool { return false }
