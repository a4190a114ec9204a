package core

import (
	"slices"
	"testing"

	"spidercache/internal/dataset"
	"spidercache/internal/elastic"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/semgraph"
	"spidercache/internal/trainer"
)

// fixture builds a SpiderCache over n samples (alternating 2-class labels,
// uniform payloads) backed by the exact brute-force searcher.
func fixture(t *testing.T, n, capacity int, mutate func(*Options)) *SpiderCache {
	t.Helper()
	labels := make([]int, n)
	payloads := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
		payloads[i] = 100
	}
	opts := Options{
		Capacity:    capacity,
		Labels:      labels,
		Payloads:    payloads,
		TotalEpochs: 10,
		Searcher:    semgraph.NewBruteSearcher(),
		Seed:        1,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feedBatch pushes a batch of feedback with class-clustered embeddings:
// class 0 near (1,0), class 1 near (0,1); sample ids listed in ids.
func feedBatch(s *SpiderCache, ids []int, off float64) {
	fb := make([]policy.Feedback, len(ids))
	for i, id := range ids {
		var emb []float64
		if id%2 == 0 {
			emb = []float64{1, off * float64(i+1)}
		} else {
			emb = []float64{off * float64(i+1), 1}
		}
		fb[i] = policy.Feedback{ID: id, Loss: 1, Embedding: emb}
	}
	s.OnBatchEnd(0, fb)
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Capacity: -1, Labels: []int{0}, Payloads: []int{1}, TotalEpochs: 1},
		{Capacity: 1, Labels: nil, Payloads: nil, TotalEpochs: 1},
		{Capacity: 1, Labels: []int{0, 1}, Payloads: []int{1}, TotalEpochs: 1},
		{Capacity: 1, Labels: []int{0}, Payloads: []int{1}, TotalEpochs: 0},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestNames(t *testing.T) {
	if s := fixture(t, 10, 4, nil); s.Name() != "SpiderCache" {
		t.Fatalf("name %q", s.Name())
	}
	s := fixture(t, 10, 4, func(o *Options) { o.DisableHomophily = true })
	if s.Name() != "SpiderCache-imp" {
		t.Fatalf("ablation name %q", s.Name())
	}
}

func TestCapacitySplit(t *testing.T) {
	s := fixture(t, 100, 20, nil)
	imp, hom := s.split(20, s.impRatio)
	if imp+hom != 20 || hom != s.hom.Cap() {
		t.Fatalf("split loses capacity: %d + %d (homophily cache %d)", imp, hom, s.hom.Cap())
	}
	if imp != 18 { // 90% of 20
		t.Fatalf("imp cap %d, want 18", imp)
	}
	full := fixture(t, 100, 20, func(o *Options) { o.DisableHomophily = true })
	if full.hom.Cap() != 0 {
		t.Fatal("imp-only variant did not get the full budget")
	}
}

func TestEpochOrderShape(t *testing.T) {
	s := fixture(t, 50, 10, nil)
	order := s.EpochOrder(0)
	if len(order) != 50 {
		t.Fatalf("order length %d", len(order))
	}
	for _, id := range order {
		if id < 0 || id >= 50 {
			t.Fatalf("id %d out of range", id)
		}
	}
}

func TestMissAdmissionByScore(t *testing.T) {
	s := fixture(t, 40, 2, func(o *Options) { o.DisableHomophily = true })
	// Give sample 0 a high global score and 2 a low one via scoring.
	feedBatch(s, []int{0, 2, 4, 6, 1, 3, 5, 7}, 0.01)
	high, low := -1, -1
	var hs, ls float64 = -1, 2
	for _, id := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		sc := s.grapher.ScoreOf(id)
		if sc > hs {
			hs, high = sc, id
		}
		if sc < ls {
			ls, low = sc, id
		}
	}
	if hs == ls {
		t.Skip("degenerate scores")
	}
	s.OnMiss(high, 100)
	s.OnMiss(low, 100)
	// Fill the 2-slot cache and check the higher-score stays when a mid
	// insertion happens.
	if lk := s.Lookup(high); lk.Source != policy.SourceCache {
		t.Fatal("high-score sample not admitted")
	}
	_ = low
}

func TestLookupPrecedence(t *testing.T) {
	s := fixture(t, 40, 10, nil)
	if lk := s.Lookup(3); lk.Source != policy.SourceMiss {
		t.Fatalf("fresh lookup %+v", lk)
	}
	s.OnMiss(3, 100)
	if lk := s.Lookup(3); lk.Source != policy.SourceCache || lk.ServedID != 3 {
		t.Fatalf("importance hit %+v", lk)
	}
}

func TestHomophilyInstallAndSubstitute(t *testing.T) {
	s := fixture(t, 40, 10, nil)
	// Batch of even-class samples tightly packed: high degree, many close
	// same-class neighbours.
	ids := []int{0, 2, 4, 6, 8, 10}
	feedBatch(s, ids, 0.0001)
	if !slices.ContainsFunc(ids, s.hom.Contains) {
		t.Fatal("no homophily host installed")
	}
	// Leave substitution open: the gate requires score below the mean; set
	// it explicitly via an epoch end.
	s.OnEpochEnd(0, 0.5)
	if !slices.ContainsFunc(ids, s.hom.Contains) {
		t.Fatal("homophily cache empty after the epoch end")
	}
	// One of the batch members (not the host itself) should be servable as
	// a substitute if its score is below the gate.
	served := 0
	for _, id := range ids {
		lk := s.Lookup(id)
		if lk.Source == policy.SourceSubstitute {
			served++
			if lk.ServedID == id {
				t.Fatal("substitute equals requested id")
			}
		}
	}
	if served == 0 {
		t.Log("no substitution served (gate may exclude all); homophily install verified")
	}
}

func TestElasticShiftsCapacity(t *testing.T) {
	s := fixture(t, 200, 40, nil)
	homBefore := s.hom.Cap()
	// Drive epochs with declining σ and saturating accuracy via real
	// scoring: feed progressively tighter embeddings so score variance
	// decays; call OnEpochEnd with rising-then-flat accuracy.
	for e := 0; e < 10; e++ {
		ids := make([]int, 40)
		for i := range ids {
			ids[i] = (e*40 + i) % 200
		}
		off := 0.5 / float64(e+1) // embeddings tighten -> σ declines
		feedBatch(s, ids, off)
		acc := 0.9 * (1 - 1/float64(e+2))
		s.OnEpochEnd(e, acc)
	}
	if s.ImpRatio() >= 0.9 {
		t.Fatalf("imp ratio %f did not move", s.ImpRatio())
	}
	// The split keeps the budget exact, so the Homophily Cache grows by
	// what the Importance Cache gives up.
	if s.hom.Cap() <= homBefore {
		t.Fatalf("homophily capacity did not grow: %d -> %d", homBefore, s.hom.Cap())
	}
}

// TestDisableElasticFreezesRatio: disabling the elastic shift, Table 6's
// static split, is Eq. 8 with REnd = RStart.
func TestDisableElasticFreezesRatio(t *testing.T) {
	s := fixture(t, 100, 20, func(o *Options) { o.Elastic = elastic.Config{RStart: 0.9, REnd: 0.9} })
	for e := 0; e < 10; e++ {
		feedBatch(s, []int{e * 3 % 100, (e*3 + 1) % 100, (e*3 + 2) % 100}, 0.3/float64(e+1))
		s.OnEpochEnd(e, 0.9)
	}
	if s.ImpRatio() != 0.9 {
		t.Fatalf("static ratio moved to %f", s.ImpRatio())
	}
}

func TestReportersAndFlags(t *testing.T) {
	s := fixture(t, 20, 5, nil)
	if !s.HasGraphIS() {
		t.Fatal("HasGraphIS false")
	}
	if w := s.BackpropWeights(nil); w != nil {
		t.Fatal("SpiderCache skips backprop")
	}
	if s.ScoreStd() != 0 {
		t.Fatal("σ nonzero before scoring")
	}
	feedBatch(s, []int{0, 1, 2, 3}, 0.1)
	if s.ScoreStd() < 0 {
		t.Fatal("negative σ")
	}
	if s.ImpRatio() != 0.9 {
		t.Fatalf("initial imp ratio %f", s.ImpRatio())
	}
}

func TestSubstitutionGateBlocksHighScoreSamples(t *testing.T) {
	s := fixture(t, 40, 10, nil)
	// Install a host covering sample 2.
	feedBatch(s, []int{0, 2, 4, 6}, 0.0001)
	s.OnEpochEnd(0, 0.5) // sets the gate at 0.75 * mean score
	// Lower the gate to sample 2's score, so it is not below it.
	s.subGate = s.grapher.ScoreOf(2)
	if lk := s.Lookup(2); lk.Source == policy.SourceSubstitute {
		t.Fatal("high-importance sample was substituted")
	}
}

// TestSearchKNNCountsEveryScoredSample drives the spider policy through the
// trainer and checks the search accounting the benchmark harness compares
// between its traced and untraced runs: scoring keeps no neighbourhood
// across batches, so every sample an epoch scores is exactly one
// SearchKNN, and no epoch reports a snapshot hit.
func TestSearchKNNCountsEveryScoredSample(t *testing.T) {
	ds, err := dataset.New(dataset.Config{
		Name: "tiny", Classes: 4, TrainSize: 300, TestSize: 100, Dim: 8,
		ClusterStd: 0.8, BoundaryFrac: 0.1, IsolatedFrac: 0.02, HardFrac: 0.05,
		PayloadMean: 6144, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Capacity: 60, Labels: ds.Labels, Payloads: ds.Payload, TotalEpochs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(trainer.Config{
		Dataset: ds, Model: nn.ResNet18, Epochs: 3, BatchSize: 64, Workers: 1, PipelineIS: true, Seed: 7,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	var searches, scored int64
	for _, e := range res.Epochs {
		if e.SearchKNN != int64(e.Requests) || e.SnapshotHits != 0 {
			t.Errorf("epoch %d: SearchKNN %d for %d scored samples, SnapshotHits %d",
				e.Epoch, e.SearchKNN, e.Requests, e.SnapshotHits)
		}
		searches += e.SearchKNN
		scored += int64(e.Requests)
	}
	if total, hits := s.SearchStats(); searches != scored || total != scored || hits != 0 {
		t.Fatalf("SearchKNN sum %d, SearchStats (%d, %d), %d samples scored", searches, total, hits, scored)
	}
}
