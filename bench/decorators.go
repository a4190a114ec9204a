package main

import (
	"sync/atomic"
	"time"

	"spidercache/internal/hnsw"
	"spidercache/internal/policy"
	"spidercache/internal/trainer"
)

// The trainer's layers are measured from outside, by wrapping what the
// trainer is handed: its policy, its remote cache, and (traced pass only)
// the policy's ANN index.

// steppedPolicy forwards every call to the wrapped policy. It always notes
// when each batch ended, which gives the step times the end-to-end latency
// metrics are made of at the cost of one clock read per batch. With tracing
// on it also times every call and folds the per-sample ones into one child
// span per batch.
//
// It implements the three optional reporter interfaces whether or not the
// wrapped policy does: where the policy does not report, it returns the
// zeros the trainer records for a policy without the interface, so the run
// is the same either way.
type steppedPolicy struct {
	inner  policy.Policy
	steps  []time.Duration // duration of each batch, in order
	epochs []epochMark     // one per finished epoch

	lastEnd   time.Time // end of the last batch
	epochEnd  time.Time // end of the last epoch (start of the run before the first)
	epochStep int       // len(steps) at that moment

	// Traced pass only.
	tl       *traceLog
	remote   *checkedRemote // shares the batch's span, may be nil
	searcher *timedSearcher // shares the batch's span, may be nil
	cur      batchAcc
	total    policyTotals
	epochID  int
}

// epochMark is how long an epoch took, evaluation included, and how many
// batches it ran.
type epochMark struct {
	dur     time.Duration
	batches int
}

// batchAcc accumulates one batch's per-sample calls.
type batchAcc struct {
	lookups, misses   int64
	lookupD, onMissD  time.Duration
	remoteD, searchD  time.Duration
	remoteN, searchN  int64
	upsertD, backprop time.Duration
	upsertN           int64
}

// policyTotals is each policy entry point's time over the run, and what
// Lookup answered.
type policyTotals struct {
	lookup, onMiss, onBatchEnd, epochOrder, onEpochEnd, backprop time.Duration
	hitCache, hitSub, miss, batches                              int64
}

func newSteppedPolicy(inner policy.Policy, tl *traceLog) *steppedPolicy {
	return &steppedPolicy{inner: inner, tl: tl}
}

// begin marks the call of trainer.Run.
func (p *steppedPolicy) begin() {
	p.lastEnd = time.Now()
	p.epochEnd = p.lastEnd
}

// endEpoch closes the epoch that OnEpochEnd was just called for.
func (p *steppedPolicy) endEpoch(now time.Time) {
	p.epochs = append(p.epochs, epochMark{dur: now.Sub(p.epochEnd), batches: len(p.steps) - p.epochStep})
	p.epochEnd, p.epochStep = now, len(p.steps)
}

func (p *steppedPolicy) Name() string     { return p.inner.Name() }
func (p *steppedPolicy) HasGraphIS() bool { return p.inner.HasGraphIS() }

func (p *steppedPolicy) EpochOrder(epoch int) []int {
	if p.tl == nil {
		return p.inner.EpochOrder(epoch)
	}
	t0 := time.Now()
	order := p.inner.EpochOrder(epoch)
	now := time.Now()
	p.total.epochOrder += now.Sub(t0)
	// The epoch span is opened here and closed by OnEpochEnd; batches name
	// it as their parent in between.
	p.epochID = p.tl.span("epoch", 0, t0, t0, 0, 0)
	p.tl.span("policy.EpochOrder", p.epochID, t0, now, 0, 0)
	return order
}

func (p *steppedPolicy) Lookup(id int) policy.Lookup {
	if p.tl == nil {
		return p.inner.Lookup(id)
	}
	t0 := time.Now()
	lk := p.inner.Lookup(id)
	p.cur.lookupD += time.Since(t0)
	p.cur.lookups++
	switch lk.Source {
	case policy.SourceCache:
		p.total.hitCache++
	case policy.SourceSubstitute:
		p.total.hitSub++
	default:
		p.total.miss++
	}
	return lk
}

func (p *steppedPolicy) OnMiss(id, size int) {
	if p.tl == nil {
		p.inner.OnMiss(id, size)
		return
	}
	t0 := time.Now()
	p.inner.OnMiss(id, size)
	p.cur.onMissD += time.Since(t0)
	p.cur.misses++
}

func (p *steppedPolicy) BackpropWeights(fb []policy.Feedback) []float64 {
	if p.tl == nil {
		return p.inner.BackpropWeights(fb)
	}
	t0 := time.Now()
	w := p.inner.BackpropWeights(fb)
	p.cur.backprop += time.Since(t0)
	return w
}

func (p *steppedPolicy) OnBatchEnd(epoch int, fb []policy.Feedback) {
	t0 := time.Now()
	p.inner.OnBatchEnd(epoch, fb)
	now := time.Now()
	p.steps = append(p.steps, now.Sub(p.lastEnd))
	if p.tl != nil {
		p.closeBatch(t0, now)
	}
	p.lastEnd = now
}

// closeBatch writes the batch's span and its aggregated children.
func (p *steppedPolicy) closeBatch(scoreStart, now time.Time) {
	c := &p.cur
	if p.remote != nil {
		c.remoteD, c.remoteN = p.remote.takeBatch()
	}
	if p.searcher != nil {
		c.searchD, c.searchN, c.upsertD, c.upsertN = p.searcher.takeBatch()
	}
	p.total.lookup += c.lookupD
	p.total.onMiss += c.onMissD
	p.total.backprop += c.backprop
	p.total.onBatchEnd += now.Sub(scoreStart)
	p.total.batches++

	id := p.tl.span("batch", p.epochID, p.lastEnd, now, 0, 0)
	child := func(name string, busy time.Duration, n int64) {
		if n > 0 {
			p.tl.span(name, id, p.lastEnd, now, busy, n)
		}
	}
	child("policy.Lookup", c.lookupD, c.lookups)
	child("policy.OnMiss", c.onMissD, c.misses)
	child("remote.Get+Set", c.remoteD, c.remoteN)
	score := p.tl.span("policy.OnBatchEnd", id, scoreStart, now, 0, 0)
	if c.searchN > 0 {
		p.tl.span("hnsw.SearchKNN", score, scoreStart, now, c.searchD, c.searchN)
	}
	if c.upsertN > 0 {
		p.tl.span("hnsw.Upsert", score, scoreStart, now, c.upsertD, c.upsertN)
	}
	p.cur = batchAcc{}
}

func (p *steppedPolicy) OnEpochEnd(epoch int, accuracy float64) {
	t0 := time.Now()
	p.inner.OnEpochEnd(epoch, accuracy)
	now := time.Now()
	p.endEpoch(now)
	if p.tl == nil {
		return
	}
	p.total.onEpochEnd += now.Sub(t0)
	p.tl.span("policy.OnEpochEnd", p.epochID, t0, now, 0, 0)
	p.tl.mu.Lock()
	p.tl.Spans[p.epochID-1].EndUS = p.tl.since(now)
	p.tl.mu.Unlock()
}

func (p *steppedPolicy) ScoreStd() float64 {
	if r, ok := p.inner.(policy.ScoreStdReporter); ok {
		return r.ScoreStd()
	}
	return 0
}

func (p *steppedPolicy) ImpRatio() float64 {
	if r, ok := p.inner.(policy.RatioReporter); ok {
		return r.ImpRatio()
	}
	return 0
}

func (p *steppedPolicy) SearchStats() (searches, snapshotHits int64) {
	if r, ok := p.inner.(policy.SearchStatsReporter); ok {
		return r.SearchStats()
	}
	return 0, 0
}

// stepBuckets returns the step times in µs as the one bucket summarize
// expects for a run whose tail is taken over all its steps.
func (p *steppedPolicy) stepBuckets() [][]float64 {
	us := make([]float64, len(p.steps))
	for i, d := range p.steps {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	return [][]float64{us}
}

// checkedRemote wraps the trainer's remote cache. It always checks what
// comes back (a payload of the wrong length is a failed output check) and
// counts consultations and errors; with tracing on it times every call.
// The trainer calls it from one goroutine at a time (Config.Prefetch is
// off in every workload), so the counters are plain.
type checkedRemote struct {
	inner   trainer.RemoteCache
	payload []int // expected payload length per sample id
	traced  bool

	gets, hits, sets, errs, badLen int64

	getD, setD time.Duration
	getUS      []float64 // every Get's latency, traced pass only
	batchD     time.Duration
	batchN     int64
}

func newCheckedRemote(inner trainer.RemoteCache, payload []int, traced bool) *checkedRemote {
	return &checkedRemote{inner: inner, payload: payload, traced: traced}
}

func (r *checkedRemote) Get(id int) ([]byte, bool, error) {
	var t0 time.Time
	if r.traced {
		t0 = time.Now()
	}
	v, found, err := r.inner.Get(id)
	if r.traced {
		d := time.Since(t0)
		r.getD += d
		r.batchD += d
		r.batchN++
		r.getUS = append(r.getUS, float64(d)/float64(time.Microsecond))
	}
	r.gets++
	switch {
	case err != nil:
		r.errs++
	case found:
		r.hits++
		if len(v) != r.payload[id] {
			r.badLen++
		}
	}
	return v, found, err
}

func (r *checkedRemote) Set(id int, payload []byte) error {
	var t0 time.Time
	if r.traced {
		t0 = time.Now()
	}
	err := r.inner.Set(id, payload)
	if r.traced {
		d := time.Since(t0)
		r.setD += d
		r.batchD += d
		r.batchN++
	}
	r.sets++
	if err != nil {
		r.errs++
	}
	return err
}

// takeBatch hands the time and count of the calls since the last take to
// the batch span that contains them.
func (r *checkedRemote) takeBatch() (time.Duration, int64) {
	d, n := r.batchD, r.batchN
	r.batchD, r.batchN = 0, 0
	return d, n
}

// timedSearcher wraps the policy's ANN index (core.Options.Searcher's
// method set). Scoring fans searches out over goroutines, so the busy
// times are atomic sums over them and may exceed wall time.
type timedSearcher struct {
	inner interface {
		Upsert(id int, vec []float64) error
		SearchKNN(q []float64, k int) []hnsw.Result
		Len() int
	}
	searchNS, upsertNS atomic.Int64
	searches, upserts  atomic.Int64

	// Values at the last takeBatch.
	lastSearchNS, lastUpsertNS, lastSearches, lastUpserts int64
}

func (s *timedSearcher) Upsert(id int, vec []float64) error {
	t0 := time.Now()
	err := s.inner.Upsert(id, vec)
	s.upsertNS.Add(int64(time.Since(t0)))
	s.upserts.Add(1)
	return err
}

func (s *timedSearcher) SearchKNN(q []float64, k int) []hnsw.Result {
	t0 := time.Now()
	res := s.inner.SearchKNN(q, k)
	s.searchNS.Add(int64(time.Since(t0)))
	s.searches.Add(1)
	return res
}

func (s *timedSearcher) Len() int { return s.inner.Len() }

// takeBatch returns the search and upsert time and counts since the last
// take. It is called between batches, when no search is running.
func (s *timedSearcher) takeBatch() (searchD time.Duration, searchN int64, upsertD time.Duration, upsertN int64) {
	sn, un := s.searchNS.Load(), s.upsertNS.Load()
	sc, uc := s.searches.Load(), s.upserts.Load()
	searchD, searchN = time.Duration(sn-s.lastSearchNS), sc-s.lastSearches
	upsertD, upsertN = time.Duration(un-s.lastUpsertNS), uc-s.lastUpserts
	s.lastSearchNS, s.lastUpsertNS, s.lastSearches, s.lastUpserts = sn, un, sc, uc
	return
}
