// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerated at reduced scale so `go test -bench=.` finishes on
// a laptop), plus ablation benchmarks for the design choices called out in
// DESIGN.md §5.
//
// For full-scale paper tables use the spiderbench CLI:
//
//	go run ./cmd/spiderbench -exp all
package spidercache_test

import (
	"slices"
	"testing"

	"spidercache/internal/cache"
	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/hnsw"
	"spidercache/internal/nn"
	"spidercache/internal/sampler"
	"spidercache/internal/semgraph"
	"spidercache/internal/trainer"
	"spidercache/internal/xrand"
)

// benchOptions shrinks every experiment to benchmark scale.
func benchOptions() experiments.Options {
	return experiments.Options{Scale: 0.12, EpochOverride: 3, Seed: 42}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkFig3a(b *testing.B)  { runExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { runExperiment(b, "fig3b") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6a(b *testing.B)  { runExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { runExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)  { runExperiment(b, "fig6c") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") } // + Fig 12
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") } // + Fig 13
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") } // + Fig 15, Table 5
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") } // + Fig 16
func BenchmarkFig17(b *testing.B)  { runExperiment(b, "fig17") }

// --- End-to-end policy benchmarks (per-epoch cost of each strategy) -----

// benchPolicies are the policies the training benchmarks run.
var benchPolicies = []string{"spider", "shade", "icache", "baseline"}

func benchTrain(b *testing.B, pol string) {
	b.Helper()
	ds := cifar10(b, 0.12, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train(b, ds, pol, 3, 42, nil)
	}
}

func BenchmarkTrainSpiderCache(b *testing.B) { benchTrain(b, benchPolicies[0]) }
func BenchmarkTrainSHADE(b *testing.B)       { benchTrain(b, benchPolicies[1]) }
func BenchmarkTrainICache(b *testing.B)      { benchTrain(b, benchPolicies[2]) }
func BenchmarkTrainBaseline(b *testing.B)    { benchTrain(b, benchPolicies[3]) }

// --- Ablation benchmarks (DESIGN.md §5) ----------------------------------

// BenchmarkAblationEviction compares the min-heap Importance cache against a
// naive full-rescan eviction at the same workload.
func BenchmarkAblationEviction(b *testing.B) {
	const capacity, universe = 1000, 10000
	rng := xrand.New(1)
	ids := make([]int, 50000)
	scores := make([]float64, len(ids))
	for i := range ids {
		ids[i] = rng.Intn(universe)
		scores[i] = rng.Float64()
	}
	b.Run("min-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cache.NewImportance(capacity)
			for j, id := range ids {
				c.Put(cache.Item{ID: id}, scores[j])
			}
		}
	})
	b.Run("rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			type entry struct {
				id    int
				score float64
			}
			m := make(map[int]entry, capacity)
			for j, id := range ids {
				if e, ok := m[id]; ok {
					e.score = scores[j]
					m[id] = e
					continue
				}
				if len(m) >= capacity {
					minID, minScore := -1, 2.0
					for _, e := range m { // O(capacity) rescan per eviction
						if e.score < minScore {
							minID, minScore = e.id, e.score
						}
					}
					if minScore >= scores[j] {
						continue
					}
					delete(m, minID)
				}
				m[id] = entry{id: id, score: scores[j]}
			}
		}
	})
}

// BenchmarkAblationMultinomial compares the alias method against a linear
// cumulative scan for one epoch of draws.
func BenchmarkAblationMultinomial(b *testing.B) {
	const n = 4000
	rng := xrand.New(2)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	b.Run("alias", func(b *testing.B) {
		r := xrand.New(3)
		for i := 0; i < b.N; i++ {
			tab := sampler.NewAlias(weights, r)
			for d := 0; d < n; d++ {
				tab.Draw()
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		r := xrand.New(3)
		var total float64
		for _, w := range weights {
			total += w
		}
		for i := 0; i < b.N; i++ {
			for d := 0; d < n; d++ {
				target := r.Float64() * total
				for _, w := range weights {
					target -= w
					if target <= 0 {
						break
					}
				}
			}
		}
	})
}

// BenchmarkAblationANN compares HNSW against exact brute-force kNN as the
// semantic graph's neighbour searcher.
func BenchmarkAblationANN(b *testing.B) {
	const n, dim, k = 4000, 32, 24
	rng := xrand.New(4)
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	build := func(s semgraph.NeighborSearcher) {
		for i, v := range vecs {
			if err := s.Upsert(i, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	hx, _ := hnsw.New(hnsw.DefaultConfig())
	build(hx)
	bf := semgraph.NewBruteSearcher()
	build(bf)
	b.Run("hnsw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hx.SearchKNN(vecs[i%n], k)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bf.SearchKNN(vecs[i%n], k)
		}
	})
}

// BenchmarkAblationPipeline measures the simulated epoch-time impact of the
// Fig 12 IS pipeline (on vs off) for a long-IS model (VGG16).
func BenchmarkAblationPipeline(b *testing.B) {
	ds := cifar10(b, 0.12, 42)
	run := func(b *testing.B, pipeline bool) {
		for i := 0; i < b.N; i++ {
			res := train(b, ds, "spider", 2, 42, func(_ *experiments.PolicyParams, c *trainer.Config) {
				c.Model, c.PipelineIS = nn.VGG16, pipeline
			})
			b.ReportMetric(res.TotalTime.Seconds(), "simsec")
		}
	}
	b.Run("pipeline-on", func(b *testing.B) { run(b, true) })
	b.Run("pipeline-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationHomophily isolates the Homophily Cache's contribution:
// full SpiderCache vs the importance-only ablation at the same budget.
func BenchmarkAblationHomophily(b *testing.B) {
	ds := cifar10(b, 0.12, 42)
	run := func(b *testing.B, name string) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(train(b, ds, name, 3, 42, nil).AvgHitRatio()*100, "hit%")
		}
	}
	b.Run("full", func(b *testing.B) { run(b, "spider") })
	b.Run("imp-only", func(b *testing.B) { run(b, "spider-imp") })
}

// BenchmarkGraphIS measures the per-batch cost of the graph-based IS stage
// (update + score for a 64-sample batch), the quantity the paper's Table 1
// reports as "IS".
func BenchmarkGraphIS(b *testing.B) {
	const n, dim, batch = 4000, 32, 64
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 10
	}
	idx, _ := hnsw.New(hnsw.DefaultConfig())
	g, err := semgraph.New(labels, idx)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(5)
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(labels[i]) + rng.NormFloat64()*0.3
		}
		vecs[i] = v
		g.Update(i, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * batch) % (n - batch)
		for s := 0; s < batch; s++ {
			id := base + s
			if err := g.Update(id, vecs[id]); err != nil {
				b.Fatal(err)
			}
			if _, err := g.Score(id, vecs[id]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLookupPath measures the full two-layer cache lookup of Algorithm
// 1 (Importance Cache, then Homophily neighbour lists).
func BenchmarkLookupPath(b *testing.B) {
	imp := cache.NewImportance(800)
	hom := cache.NewHomophily(200)
	rng := xrand.New(6)
	for i := 0; i < 800; i++ {
		imp.Put(cache.Item{ID: i}, rng.Float64())
	}
	for i := 0; i < 200; i++ {
		nbs := make([]int, 8)
		for j := range nbs {
			nbs[j] = 1000 + rng.Intn(2000)
		}
		hom.Put(cache.Item{ID: 5000 + i}, nbs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := rng.Intn(4000)
		if _, ok := imp.Get(id); ok {
			continue
		}
		hom.LookupNeighbor(id)
	}
}

// Guard: the training benchmarks name registered policies, and the bench
// option scale builds a valid workload.
func TestBenchPoliciesExist(t *testing.T) {
	for _, name := range benchPolicies {
		if !slices.Contains(experiments.PolicyNames(), name) {
			t.Fatalf("policy %s missing from registry", name)
		}
	}
	if _, err := dataset.New(dataset.CIFAR10Like(benchOptions().Scale, 1)); err != nil {
		t.Fatal(err)
	}
}
