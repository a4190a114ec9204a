package semgraph

import (
	"math"
	"sort"

	"spidercache/internal/hnsw"
)

// BruteSearcher is an exact-kNN NeighborSearcher used as ground truth in
// recall tests and as the baseline in the HNSW ablation benchmark.
type BruteSearcher struct {
	ids  []int
	vecs [][]float64
	slot map[int]int
}

// NewBruteSearcher returns an empty exact searcher.
func NewBruteSearcher() *BruteSearcher {
	return &BruteSearcher{slot: make(map[int]int)}
}

// Upsert inserts or replaces the vector stored under id.
func (b *BruteSearcher) Upsert(id int, vec []float64) error {
	owned := make([]float64, len(vec))
	copy(owned, vec)
	if s, ok := b.slot[id]; ok {
		b.vecs[s] = owned
		return nil
	}
	b.slot[id] = len(b.ids)
	b.ids = append(b.ids, id)
	b.vecs = append(b.vecs, owned)
	return nil
}

// SearchKNN scans every indexed vector and returns the exact k nearest.
func (b *BruteSearcher) SearchKNN(q []float64, k int) []hnsw.Result {
	if k <= 0 || len(b.ids) == 0 {
		return nil
	}
	res := make([]hnsw.Result, 0, len(b.ids))
	for i, v := range b.vecs {
		var s float64
		for j, qv := range q {
			d := qv - v[j]
			s += d * d
		}
		res = append(res, hnsw.Result{ID: b.ids[i], Dist: math.Sqrt(s)})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Dist != res[j].Dist {
			return res[i].Dist < res[j].Dist
		}
		return res[i].ID < res[j].ID
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}
