package policy

import (
	"testing"
)

func drainOrder(t *testing.T, p Policy, n int) []int {
	t.Helper()
	order := p.EpochOrder(0)
	if len(order) != n {
		t.Fatalf("%s: order length %d, want %d", p.Name(), len(order), n)
	}
	for _, id := range order {
		if id < 0 || id >= n {
			t.Fatalf("%s: id %d out of range", p.Name(), id)
		}
	}
	return order
}

func TestSimplePoliciesBasics(t *testing.T) {
	const n, capacity = 50, 10
	builders := []func() (Policy, error){
		func() (Policy, error) { return NewBaselineLRU(n, capacity, 1) },
		func() (Policy, error) { return NewLFU(n, capacity, 1) },
		func() (Policy, error) { return NewCoorDL(n, capacity, 1) },
	}
	for _, build := range builders {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		drainOrder(t, p, n)
		if lk := p.Lookup(7); lk.Source != SourceMiss || lk.ServedID != 7 {
			t.Fatalf("%s: fresh lookup = %+v", p.Name(), lk)
		}
		p.OnMiss(7, 100)
		if lk := p.Lookup(7); lk.Source != SourceCache || lk.ServedID != 7 {
			t.Fatalf("%s: post-miss lookup = %+v", p.Name(), lk)
		}
		if p.HasGraphIS() {
			t.Fatalf("%s claims graph IS", p.Name())
		}
		if w := p.BackpropWeights(nil); w != nil {
			t.Fatalf("%s returns backprop weights", p.Name())
		}
		p.OnBatchEnd(0, nil)
		p.OnEpochEnd(0, 0.5)
	}
}

func TestCoorDLStatic(t *testing.T) {
	p, _ := NewCoorDL(10, 2, 1)
	p.OnMiss(1, 10)
	p.OnMiss(2, 10)
	p.OnMiss(3, 10) // no space: dropped
	if lk := p.Lookup(3); lk.Source != SourceMiss {
		t.Fatal("static cache admitted over capacity")
	}
	if lk := p.Lookup(1); lk.Source != SourceCache {
		t.Fatal("static resident evicted")
	}
}

func TestShadeRankWeights(t *testing.T) {
	p, err := NewShade(10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb := []Feedback{
		{ID: 0, Loss: 0.1},
		{ID: 1, Loss: 2.0},
		{ID: 2, Loss: 0.5},
		{ID: 3, Loss: 1.0},
	}
	p.OnBatchEnd(0, fb)
	// Ranks ascending by loss: 0 -> 1/4, 2 -> 2/4, 3 -> 3/4, 1 -> 4/4.
	wants := map[int]float64{0: 0.25, 2: 0.5, 3: 0.75, 1: 1.0}
	for id, want := range wants {
		if got := p.lastRank[id]; got != want {
			t.Errorf("rank weight of %d = %g, want %g", id, got, want)
		}
	}
	// Unseen samples keep top weight.
	if p.lastRank[9] != 1 {
		t.Errorf("unseen rank = %g, want 1", p.lastRank[9])
	}
}

func TestShadeCacheUsesRanks(t *testing.T) {
	p, _ := NewShade(10, 1, 1)
	p.OnBatchEnd(0, []Feedback{{ID: 0, Loss: 0.1}, {ID: 1, Loss: 2.0}})
	p.OnMiss(0, 10) // rank 0.5
	p.OnMiss(1, 10) // rank 1.0: displaces 0
	if lk := p.Lookup(1); lk.Source != SourceCache {
		t.Fatal("high-rank sample not cached")
	}
	if lk := p.Lookup(0); lk.Source != SourceMiss {
		t.Fatal("low-rank sample still cached")
	}
}

// substituteWithin looks id up until the bounded-probability substitution
// fires, at most tries times, and returns the last lookup.
func substituteWithin(p *ICache, id, tries int) Lookup {
	var lk Lookup
	for i := 0; i < tries && lk.Source != SourceSubstitute; i++ {
		lk = p.Lookup(id)
	}
	return lk
}

func TestICacheRouting(t *testing.T) {
	p, err := NewICache(20, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	drainOrder(t, p, 20)
	// Establish a loss distribution: ids 0-3 well-learned, 4-5 hard.
	fb := []Feedback{
		{ID: 0, Loss: 0.1}, {ID: 1, Loss: 0.1}, {ID: 2, Loss: 0.1}, {ID: 3, Loss: 0.1},
		{ID: 4, Loss: 5.0}, {ID: 5, Loss: 5.0},
	}
	p.OnBatchEnd(0, fb)
	// A high-loss miss routes to the H (importance) region.
	p.OnMiss(4, 10)
	if lk := p.Lookup(4); lk.Source != SourceCache {
		t.Fatal("H-sample not cached")
	}
	// A low-loss miss routes to the L region.
	p.OnMiss(0, 10)
	if lk := p.Lookup(0); lk.Source != SourceCache {
		t.Fatal("L-sample not cached")
	}
	// Another low-loss sample missing both regions gets substituted, with
	// probability iCacheSubstituteProb per lookup.
	lk := substituteWithin(p, 1, 50)
	if lk.Source != SourceSubstitute {
		t.Fatalf("eligible L-sample not substituted: %+v", lk)
	}
	if lk.ServedID == 1 {
		t.Fatal("substitute is the requested sample")
	}
}

func TestICacheIdentityConfusion(t *testing.T) {
	p, _ := NewICache(20, 10, 1)
	p.OnBatchEnd(0, []Feedback{
		{ID: 0, Loss: 0.1}, {ID: 1, Loss: 3.0}, {ID: 2, Loss: 0.1},
	})
	p.OnMiss(0, 10) // resident L sample
	lk := substituteWithin(p, 2, 50)
	if lk.Source != SourceSubstitute {
		t.Fatal("substitution never triggered")
	}
	// Feedback arrives for the substitute; the requested sample's loss
	// record must be overwritten with it.
	p.OnBatchEnd(0, []Feedback{{ID: lk.ServedID, Loss: 0.42}})
	if p.lastLoss[2] != 0.42 {
		t.Fatalf("requested sample's loss = %g, want substitute's 0.42", p.lastLoss[2])
	}
}

func TestICacheImpNoSubstitution(t *testing.T) {
	p, err := NewICacheImp(20, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "iCache-imp" {
		t.Fatalf("name %q", p.Name())
	}
	p.OnBatchEnd(0, []Feedback{{ID: 0, Loss: 0.01}, {ID: 1, Loss: 9.9}})
	for id := 2; id < 20; id++ {
		if lk := p.Lookup(id); lk.Source == SourceSubstitute {
			t.Fatal("imp-only variant substituted")
		}
	}
}

func TestICacheSkipWarmup(t *testing.T) {
	p, _ := NewICache(20, 10, 1)
	// Before any feedback there is no EMA: train everything.
	if w := p.BackpropWeights([]Feedback{{ID: 0, Loss: 4.6}}); w != nil {
		t.Fatal("skipped before warm-up")
	}
	// Uniform high losses: nothing qualifies as learned.
	fb := make([]Feedback, 8)
	for i := range fb {
		fb[i] = Feedback{ID: i, Loss: 4.6}
	}
	p.OnBatchEnd(0, fb)
	if w := p.BackpropWeights(fb); w != nil {
		t.Fatal("skipped samples at uniform loss level")
	}
}

func TestICacheSkipsLearnedSamples(t *testing.T) {
	p, _ := NewICache(20, 10, 1)
	// Push the EMA to ~1.0.
	warm := make([]Feedback, 0, 600)
	for i := 0; i < 600; i++ {
		warm = append(warm, Feedback{ID: i % 20, Loss: 1.0})
	}
	p.OnBatchEnd(0, warm)
	fb := []Feedback{
		{ID: 0, Loss: 0.01}, // clearly learned
		{ID: 1, Loss: 1.2},
		{ID: 2, Loss: 0.02}, // clearly learned
		{ID: 3, Loss: 1.1},
		{ID: 4, Loss: 1.0},
		{ID: 5, Loss: 0.9},
		{ID: 6, Loss: 1.3},
		{ID: 7, Loss: 1.05},
	}
	w := p.BackpropWeights(fb)
	if w == nil {
		t.Fatal("no skipping despite learned samples")
	}
	for i, v := range w {
		if skip := i == 0 || i == 2; (v == 0) != skip {
			t.Fatalf("sample %d: weight %g, want skipped %v: %v", i, v, skip, w)
		}
	}
	// Skip cap: at most iCacheSkipFrac of the batch, int(10 × 0.25) = 2.
	many := make([]Feedback, 10)
	for i := range many {
		many[i] = Feedback{ID: i, Loss: 0.01}
	}
	w = p.BackpropWeights(many)
	skipped := 0
	for _, v := range w {
		if v == 0 {
			skipped++
		}
	}
	if skipped != 2 {
		t.Fatalf("skipped %d, want the cap of 2", skipped)
	}
}

func TestICacheValidation(t *testing.T) {
	if _, err := NewICache(0, 5, 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := NewICacheImp(0, 5, 1); err == nil {
		t.Fatal("empty dataset accepted by iCache-imp")
	}
}

func TestSourceString(t *testing.T) {
	if SourceMiss.String() != "miss" || SourceCache.String() != "cache" ||
		SourceSubstitute.String() != "substitute" || Source(9).String() != "unknown" {
		t.Fatal("Source.String labels wrong")
	}
}
