package hnsw

import (
	"math"
	"sort"
	"testing"

	"spidercache/internal/xrand"
)

func randomVecs(n, dim int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

func bruteKNN(vecs [][]float64, q []float64, k int) []int {
	type pair struct {
		id int
		d  float64
	}
	ps := make([]pair, len(vecs))
	for i, v := range vecs {
		var s float64
		for j := range q {
			d := q[j] - v[j]
			s += d * d
		}
		ps[i] = pair{i, s}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].d < ps[b].d })
	out := make([]int, 0, k)
	for i := 0; i < k && i < len(ps); i++ {
		out = append(out, ps[i].id)
	}
	return out
}

func TestEmptyIndex(t *testing.T) {
	ix, _ := New(DefaultConfig())
	if got := ix.SearchKNN([]float64{1, 2}, 5); got != nil {
		t.Fatalf("search on empty index returned %v", got)
	}
	if ix.Len() != 0 || ix.Dim() != 0 || ix.Contains(3) {
		t.Fatal("empty index state wrong")
	}
}

func TestUpsertValidation(t *testing.T) {
	ix, _ := New(DefaultConfig())
	if err := ix.Upsert(0, nil); err == nil {
		t.Fatal("empty vector accepted")
	}
	if err := ix.Upsert(0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Upsert(1, []float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	const n, dim, k, queries = 2000, 16, 10, 50
	vecs := randomVecs(n, dim, 1)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		if err := ix.Upsert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	qs := randomVecs(queries, dim, 2)
	var hits, total int
	for _, q := range qs {
		truth := bruteKNN(vecs, q, k)
		truthSet := map[int]bool{}
		for _, id := range truth {
			truthSet[id] = true
		}
		for _, r := range ix.SearchKNN(q, k) {
			if truthSet[r.ID] {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)
	if recall < 0.9 {
		t.Fatalf("recall@%d = %.3f, want >= 0.9", k, recall)
	}
}

func TestSearchReturnsSortedDistances(t *testing.T) {
	vecs := randomVecs(500, 8, 3)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	res := ix.SearchKNN(vecs[7], 20)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results unsorted at %d: %v < %v", i, res[i].Dist, res[i-1].Dist)
		}
	}
	if res[0].ID != 7 || res[0].Dist != 0 {
		t.Fatalf("indexed query point not first hit: %+v", res[0])
	}
}

func TestUpdateMovesPoint(t *testing.T) {
	const dim = 8
	vecs := randomVecs(600, dim, 4)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	// Move point 5 to a far-away location and verify searches find it there.
	far := make([]float64, dim)
	for j := range far {
		far[j] = 40
	}
	if err := ix.Upsert(5, far); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 600 {
		t.Fatalf("update changed Len to %d", ix.Len())
	}
	got := ix.Vector(5)
	for j := range far {
		if got[j] != far[j] {
			t.Fatal("stored vector not replaced")
		}
	}
	res := ix.SearchKNN(far, 1)
	if len(res) == 0 || res[0].ID != 5 {
		t.Fatalf("moved point not found at new location: %+v", res)
	}
	// The old location must no longer return point 5 first.
	res = ix.SearchKNN(vecs[5], 3)
	for _, r := range res {
		if r.ID == 5 {
			t.Fatalf("stale location still matches moved point")
		}
	}
}

func TestManyUpdatesKeepRecall(t *testing.T) {
	const n, dim, k = 800, 8, 5
	vecs := randomVecs(n, dim, 5)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	// Re-insert every vector with a small perturbation (simulating
	// embedding drift during training).
	rng := xrand.New(6)
	for i := range vecs {
		nv := make([]float64, dim)
		for j := range nv {
			nv[j] = vecs[i][j] + rng.NormFloat64()*0.01
		}
		vecs[i] = nv
		ix.Upsert(i, nv)
	}
	var hits, total int
	for qi := 0; qi < 30; qi++ {
		q := vecs[qi*7%n]
		truth := bruteKNN(vecs, q, k)
		set := map[int]bool{}
		for _, id := range truth {
			set[id] = true
		}
		for _, r := range ix.SearchKNN(q, k) {
			if set[r.ID] {
				hits++
			}
		}
		total += k
	}
	if recall := float64(hits) / float64(total); recall < 0.85 {
		t.Fatalf("recall after updates = %.3f", recall)
	}
}

func TestDistancesAreEuclidean(t *testing.T) {
	ix, _ := New(DefaultConfig())
	ix.Upsert(0, []float64{0, 0})
	ix.Upsert(1, []float64{3, 4})
	res := ix.SearchKNN([]float64{0, 0}, 2)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if math.Abs(res[1].Dist-5) > 1e-12 {
		t.Fatalf("distance %g, want 5", res[1].Dist)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Index {
		ix, _ := New(DefaultConfig())
		for i, v := range randomVecs(300, 8, 7) {
			ix.Upsert(i, v)
		}
		return ix
	}
	a, b := build(), build()
	q := randomVecs(1, 8, 8)[0]
	ra, rb := a.SearchKNN(q, 10), b.SearchKNN(q, 10)
	if len(ra) != len(rb) {
		t.Fatal("result lengths differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestKLargerThanIndex(t *testing.T) {
	ix, _ := New(DefaultConfig())
	for i, v := range randomVecs(5, 4, 9) {
		ix.Upsert(i, v)
	}
	res := ix.SearchKNN([]float64{0, 0, 0, 0}, 50)
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
}

func TestMemoryBytes(t *testing.T) {
	ix, _ := New(DefaultConfig())
	if ix.MemoryBytes() != 0 {
		t.Fatal("empty index reports memory")
	}
	for i, v := range randomVecs(100, 16, 10) {
		ix.Upsert(i, v)
	}
	got := ix.MemoryBytes()
	if got < 100*16*8 {
		t.Fatalf("MemoryBytes %d below raw vector size", got)
	}
	// 100 points is more than one full list: every point has links, none
	// more than its caps, and the bytes charge four for each.
	links := ix.Links()
	if links < 100 || links > 100*3*defaultParams.M || got != 100*(16*8+48)+4*int64(links) {
		t.Fatalf("Links %d, MemoryBytes %d", links, got)
	}
}
