package semgraph

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"spidercache/internal/hnsw"
	"spidercache/internal/leakcheck"
	"spidercache/internal/xrand"
)

func testGrapher(t *testing.T, n int, seed uint64) *Grapher {
	t.Helper()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	ix, err := hnsw.New(hnsw.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(labels, ix)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func clusteredEmbedding(id, dim int, rng *xrand.Rand) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = rng.NormFloat64() * 0.05
	}
	v[id%4] += 1 // four tight class clusters
	return v
}

// batches returns deterministic batch id/embedding pairs, including
// duplicate ids within a batch (as substitute serving produces).
func testBatches(n, dim int, seed uint64) ([][]int, [][][]float64) {
	rng := xrand.New(seed)
	var ids [][]int
	var embs [][][]float64
	for start := 0; start < n; start += 16 {
		end := start + 16
		if end > n {
			end = n
		}
		var bi []int
		var be [][]float64
		for id := start; id < end; id++ {
			bi = append(bi, id)
			be = append(be, clusteredEmbedding(id, dim, rng))
		}
		// Duplicate the first sample of every batch at the tail.
		bi = append(bi, bi[0])
		be = append(be, clusteredEmbedding(bi[0], dim, rng))
		ids = append(ids, bi)
		embs = append(embs, be)
	}
	return ids, embs
}

// TestScoreBatchParallelMatchesSerial is the determinism test of the
// acceptance criteria: the same batches scored at GOMAXPROCS 1 and at
// GOMAXPROCS 8 must produce bitwise-identical results and score tables.
// GOMAXPROCS 8 takes the parallel branch on any host, however few its cores.
func TestScoreBatchParallelMatchesSerial(t *testing.T) {
	leakcheck.Check(t)
	const n, dim = 96, 12
	serial := testGrapher(t, n, 5)
	parallel := testGrapher(t, n, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	ids, embs := testBatches(n, dim, 77)
	for b := range ids {
		runtime.GOMAXPROCS(1)
		sres, err := serial.ScoreBatch(ids[b], embs[b])
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(8)
		pres, err := parallel.ScoreBatch(ids[b], embs[b])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sres, pres) {
			t.Fatalf("batch %d: parallel results differ from serial", b)
		}
	}
	for id := 0; id < n; id++ {
		if serial.ScoreOf(id) != parallel.ScoreOf(id) {
			t.Fatalf("score table diverged at id %d: %v vs %v", id, serial.ScoreOf(id), parallel.ScoreOf(id))
		}
	}
	if serial.ScoreStd() != parallel.ScoreStd() || serial.ScoreMean() != parallel.ScoreMean() {
		t.Fatal("aggregate statistics diverged between serial and parallel scoring")
	}
}

// TestScoreBatchMatchesSequentialScoreCalls checks the serial path against
// the one-sample API: upserts first, then per-sample Score calls over the
// frozen index must land on the same scores ScoreBatch records.
func TestScoreBatchMatchesSequentialScoreCalls(t *testing.T) {
	const n, dim = 48, 10
	a := testGrapher(t, n, 9)
	b := testGrapher(t, n, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	rng := xrand.New(13)
	ids := make([]int, n)
	embs := make([][]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = i
		embs[i] = clusteredEmbedding(i, dim, rng)
	}
	if _, err := a.ScoreBatch(ids, embs); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := b.Update(id, embs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if _, err := b.Score(id, embs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < n; id++ {
		if a.ScoreOf(id) != b.ScoreOf(id) {
			t.Fatalf("id %d: ScoreBatch %v vs sequential %v", id, a.ScoreOf(id), b.ScoreOf(id))
		}
	}
}

// TestScoreBatchCountsSearches checks the search accounting the trainer and
// the harness read: every id of a batch, duplicates included, is one
// SearchKNN, counted once in SearchCalls as each batch is scored.
func TestScoreBatchCountsSearches(t *testing.T) {
	const n, dim = 64, 8
	g := testGrapher(t, n, 17)
	ids, embs := testBatches(n, dim, 19)
	var want int64
	for b := range ids {
		if _, err := g.ScoreBatch(ids[b], embs[b]); err != nil {
			t.Fatal(err)
		}
		want += int64(len(ids[b]))
		if got := g.SearchCalls(); got != want {
			t.Fatalf("batch %d of %d ids: SearchCalls %d, want %d", b, len(ids[b]), got, want)
		}
	}
}

func TestScoreBatchValidation(t *testing.T) {
	g := testGrapher(t, 8, 3)
	if _, err := g.ScoreBatch([]int{1, 2}, [][]float64{{1}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := g.ScoreBatch([]int{99}, [][]float64{{1, 0}}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := g.ScoreBatch(nil, nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
}

// scanStats recomputes count/mean/std the way the former O(n) scans did:
// two-pass over the scored table. The incremental statistics must agree
// within float tolerance.
func scanStats(g *Grapher) (count int, mean, std float64) {
	var sum float64
	for i, ok := range g.scored {
		if ok {
			sum += g.scores[i]
			count++
		}
	}
	if count == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(count)
	if count < 2 {
		return count, mean, 0
	}
	var ss float64
	for i, ok := range g.scored {
		if ok {
			d := g.scores[i] - mean
			ss += d * d
		}
	}
	return count, mean, math.Sqrt(ss / float64(count))
}

// stdClose compares standard deviations with sqrt-amplification in mind:
// when the true σ is at machine-epsilon scale, an O(1e-18) variance rounding
// difference blows up to O(1e-9) on the std, so near zero the comparison
// falls back to the variances.
func stdClose(got, want float64) bool {
	if math.Abs(got-want) <= 1e-9 {
		return true
	}
	return math.Abs(got*got-want*want) <= 1e-12
}

func TestIncrementalStatsMatchScan(t *testing.T) {
	const n, dim = 80, 8
	g := testGrapher(t, n, 21)
	ids, embs := testBatches(n, dim, 31)
	for b := range ids {
		if _, err := g.ScoreBatch(ids[b], embs[b]); err != nil {
			t.Fatal(err)
		}
		wantN, wantMean, wantStd := scanStats(g)
		if g.statN != wantN {
			t.Fatalf("batch %d: scored count %d, scan %d", b, g.statN, wantN)
		}
		if math.Abs(g.ScoreMean()-wantMean) > 1e-9 {
			t.Fatalf("batch %d: ScoreMean %v, scan %v", b, g.ScoreMean(), wantMean)
		}
		if !stdClose(g.ScoreStd(), wantStd) {
			t.Fatalf("batch %d: ScoreStd %v, scan %v", b, g.ScoreStd(), wantStd)
		}
	}
	// Rescoring the same samples (score replacement path) must keep the
	// statistics exact, not drift.
	for b := range ids {
		if _, err := g.ScoreBatch(ids[b], embs[b]); err != nil {
			t.Fatal(err)
		}
	}
	_, wantMean, wantStd := scanStats(g)
	if math.Abs(g.ScoreMean()-wantMean) > 1e-9 || !stdClose(g.ScoreStd(), wantStd) {
		t.Fatalf("stats drifted after rescoring: mean %v/%v std %v/%v",
			g.ScoreMean(), wantMean, g.ScoreStd(), wantStd)
	}
}

func TestNormalizeInto(t *testing.T) {
	vec := []float64{3, 4}
	got := NormalizeInto(nil, vec)
	if math.Abs(got[0]-0.6) > 1e-12 || math.Abs(got[1]-0.8) > 1e-12 {
		t.Fatalf("NormalizeInto = %v", got)
	}
	if vec[0] != 3 || vec[1] != 4 {
		t.Fatal("input mutated")
	}
	// Buffer reuse: a second call must reuse the same backing array.
	buf := make([]float64, 4)
	out := NormalizeInto(buf, vec)
	if &out[0] != &buf[0] {
		t.Fatal("sufficient-capacity buffer was not reused")
	}
	if len(out) != 2 {
		t.Fatalf("result length %d", len(out))
	}
	// Zero vector passes through unchanged.
	z := NormalizeInto(nil, []float64{0, 0, 0})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("zero vector normalised to %v", z)
		}
	}
}

func BenchmarkScoreBatch(b *testing.B) {
	const n, dim, batch = 2048, 16, 64
	for _, procs := range []int{1, 0} {
		name := "serial"
		if procs == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			labels := make([]int, n)
			for i := range labels {
				labels[i] = i % 10
			}
			ix, err := hnsw.New(hnsw.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			g, err := New(labels, ix)
			if err != nil {
				b.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := xrand.New(4)
			// Pre-populate the index so searches do real work.
			for id := 0; id < n; id++ {
				if err := g.Update(id, clusteredEmbedding(id, dim, rng)); err != nil {
					b.Fatal(err)
				}
			}
			ids := make([]int, batch)
			embs := make([][]float64, batch)
			for i := range ids {
				ids[i] = i
				embs[i] = clusteredEmbedding(i, dim, rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ScoreBatch(ids, embs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
