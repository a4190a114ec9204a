package semgraph

import (
	"math"
	"testing"

	"spidercache/internal/hnsw"
	"spidercache/internal/xrand"
)

// buildClustered indexes two well-separated class clusters plus one
// misclassified point and returns (grapher, labels).
// Layout (2-D, pre-normalisation):
//
//	class 0: tight cluster around (1, 0)
//	class 1: tight cluster around (0, 1)
//	sample 20 ("misclassified"): label 0 but embedded inside class 1
func buildClustered(t *testing.T) *Grapher {
	t.Helper()
	labels := make([]int, 21)
	for i := 10; i < 20; i++ {
		labels[i] = 1
	}
	labels[20] = 0
	g, err := New(labels, NewBruteSearcher())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	emb := func(cx, cy float64) []float64 {
		return []float64{cx + rng.NormFloat64()*0.05, cy + rng.NormFloat64()*0.05}
	}
	for i := 0; i < 10; i++ {
		if err := g.Update(i, emb(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 20; i++ {
		if err := g.Update(i, emb(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Update(20, emb(0, 1)); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, NewBruteSearcher()); err == nil {
		t.Fatal("empty labels accepted")
	}
	if _, err := New([]int{0}, nil); err == nil {
		t.Fatal("nil searcher accepted")
	}
}

// TestNormalize: with a nil dst, NormalizeInto returns a fresh unit
// vector and leaves vec as it was.
func TestNormalize(t *testing.T) {
	v := NormalizeInto(nil, []float64{3, 4})
	if math.Abs(v[0]-0.6) > 1e-12 || math.Abs(v[1]-0.8) > 1e-12 {
		t.Fatalf("NormalizeInto(nil, {3, 4}) = %v", v)
	}
	z := NormalizeInto(nil, []float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero vector changed: %v", z)
	}
	in := []float64{2, 0}
	if out := NormalizeInto(nil, in); in[0] != 2 || &out[0] == &in[0] {
		t.Fatal("NormalizeInto(nil, v) mutated or aliased v")
	}
}

// TestSimilarityDecay: the edge and substitution distance bars are where
// Eq. 2's similarity exp(-λd) falls to alpha and homAlpha, and the
// substitution bar is the stricter one.
func TestSimilarityDecay(t *testing.T) {
	g, _ := New([]int{0, 1}, NewBruteSearcher())
	sim := func(d float64) float64 { return math.Exp(-lambda * d) }
	if s := sim(g.distThresh); math.Abs(s-alpha) > 1e-12 {
		t.Fatalf("sim at the edge bar = %g, want %g", s, alpha)
	}
	if s := sim(g.homDistThresh); math.Abs(s-homAlpha) > 1e-12 {
		t.Fatalf("sim at the substitution bar = %g, want %g", s, homAlpha)
	}
	if g.homDistThresh >= g.distThresh {
		t.Fatalf("substitution bar %g not inside the edge bar %g", g.homDistThresh, g.distThresh)
	}
}

// TestScoreStates verifies the paper's Fig 8(b) state mapping: the
// misclassified sample scores strictly highest, well-classified samples
// strictly lowest.
func TestScoreStates(t *testing.T) {
	g := buildClustered(t)
	// Replay the generator stream of buildClustered so each Score call uses
	// exactly the embedding that was indexed for that sample.
	results := make(map[int]ScoreResult)
	rng := xrand.New(1)
	emb := func(cx, cy float64) []float64 {
		return []float64{cx + rng.NormFloat64()*0.05, cy + rng.NormFloat64()*0.05}
	}
	for i := 0; i < 10; i++ {
		r, err := g.Score(i, emb(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	for i := 10; i < 20; i++ {
		r, _ := g.Score(i, emb(0, 1))
		results[i] = r
	}
	mis, _ := g.Score(20, emb(0, 1))

	for i := 0; i < 20; i++ {
		if mis.Score <= results[i].Score {
			t.Fatalf("misclassified score %.3f not above well-classified %.3f (id %d)",
				mis.Score, results[i].Score, i)
		}
	}
	if mis.Other == 0 {
		t.Fatal("misclassified sample has no other-class neighbours")
	}
	if results[0].Same < 5 {
		t.Fatalf("well-classified sample has only %d same-class neighbours", results[0].Same)
	}
}

func TestScoreFormula(t *testing.T) {
	// score = ln(1/same + other/neighborMax + 1) with same including self.
	g, _ := New([]int{0, 0, 1}, NewBruteSearcher())
	g.Update(0, []float64{1, 0})
	g.Update(1, []float64{1, 0.01})
	g.Update(2, []float64{1, 0.02})
	r, err := g.Score(0, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(1/float64(r.Same) + float64(r.Other)/float64(neighborMax) + 1)
	if math.Abs(r.Score-want) > 1e-12 {
		t.Fatalf("score %.6f, formula gives %.6f", r.Score, want)
	}
	if g.ScoreOf(0) != r.Score {
		t.Fatal("global table not updated")
	}
}

func TestCloseNeighborsSameClassOnly(t *testing.T) {
	g, _ := New([]int{0, 0, 1}, NewBruteSearcher())
	g.Update(0, []float64{1, 0})
	g.Update(1, []float64{1, 0.001}) // near-duplicate, same class
	g.Update(2, []float64{1, 0.002}) // near-duplicate, other class
	r, _ := g.Score(0, []float64{1, 0})
	foundSame, foundOther := false, false
	for _, nb := range r.CloseNeighbors {
		if nb == 1 {
			foundSame = true
		}
		if nb == 2 {
			foundOther = true
		}
	}
	if !foundSame {
		t.Fatal("same-class near-duplicate missing from CloseNeighbors")
	}
	if foundOther {
		t.Fatal("other-class sample in CloseNeighbors")
	}
}

func TestScoreRangeChecks(t *testing.T) {
	g, _ := New([]int{0, 1}, NewBruteSearcher())
	if err := g.Update(5, []float64{1}); err == nil {
		t.Fatal("out-of-range Update accepted")
	}
	if _, err := g.Score(-1, []float64{1}); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestScoreStdAndMean(t *testing.T) {
	g := buildClustered(t)
	if g.ScoreStd() != 0 || g.ScoreMean() != 0 {
		t.Fatal("unscored grapher reports nonzero stats")
	}
	rng := xrand.New(2)
	for i := 0; i < 21; i++ {
		cx, cy := 1.0, 0.0
		if i >= 10 {
			cx, cy = 0, 1
		}
		g.Score(i, []float64{cx + rng.NormFloat64()*0.05, cy + rng.NormFloat64()*0.05})
	}
	if g.statN != 21 {
		t.Fatalf("scored count = %d", g.statN)
	}
	if g.ScoreStd() <= 0 {
		t.Fatal("σ of heterogeneous scores is zero")
	}
	if g.ScoreMean() <= 0 {
		t.Fatal("mean score is zero")
	}
}

func TestGrapherWithHNSWMatchesBrute(t *testing.T) {
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = i % 4
	}
	mk := func(s NeighborSearcher) *Grapher {
		g, err := New(labels, s)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	idx, _ := hnsw.New(hnsw.DefaultConfig())
	gh := mk(idx)
	gb := mk(NewBruteSearcher())

	rng := xrand.New(3)
	vecs := make([][]float64, 200)
	for i := range vecs {
		base := float64(labels[i])
		vecs[i] = []float64{base + rng.NormFloat64()*0.1, -base + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1}
		gh.Update(i, vecs[i])
		gb.Update(i, vecs[i])
	}
	var diff, n float64
	for i := 0; i < 200; i += 5 {
		rh, _ := gh.Score(i, vecs[i])
		rb, _ := gb.Score(i, vecs[i])
		diff += math.Abs(rh.Score - rb.Score)
		n++
	}
	if avg := diff / n; avg > 0.05 {
		t.Fatalf("HNSW scores diverge from exact by %.4f on average", avg)
	}
}

func TestBruteSearcherUpsertReplaces(t *testing.T) {
	b := NewBruteSearcher()
	b.Upsert(1, []float64{0, 0})
	b.Upsert(1, []float64{5, 5})
	if len(b.ids) != 1 {
		t.Fatalf("indexed points = %d", len(b.ids))
	}
	res := b.SearchKNN([]float64{5, 5}, 1)
	if res[0].Dist != 0 {
		t.Fatal("vector not replaced")
	}
}
