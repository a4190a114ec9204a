// Package semgraph implements the paper's Graph-based Importance Score
// Algorithm (Section 4.1).
//
// Each training sample is a node; its position is the embedding produced by
// the model's feature-extraction layer. Approximate nearest neighbours come
// from an ANN searcher (HNSW by default). Two samples are joined by an edge
// when their similarity sim(x,y) = exp(-λ·d(x,y)) exceeds a threshold α
// (Eqs. 2-3). For each scored sample the counts x_same (same-class
// neighbours) and x_other (different-class neighbours) yield the global
// importance score of Eq. 4:
//
//	score(x) = ln(1/x_same + x_other/neighborMax + 1)
//
// λ, α, neighborMax, the neighbour count k and the substitution bar are
// package constants: the paper fixes them, and every run uses one value.
//
// The sample itself counts as one same-class neighbour so x_same >= 1 and
// the score stays finite (hnswlib likewise returns the query point when it
// is indexed). The graph is transient: only scores and the per-batch
// top-degree node's neighbour list are retained, exactly as the paper's
// overhead analysis (Section 5) prescribes.
//
// ScoreBatch scores a mini-batch on up to GOMAXPROCS cores. The width
// changes how fast a batch is scored, never the scores it records.
package semgraph

import (
	"fmt"
	"math"
	"sync/atomic"

	"spidercache/internal/hnsw"
)

// NeighborSearcher abstracts the ANN index so exact brute-force search can
// be swapped in for recall tests and ablation benchmarks.
type NeighborSearcher interface {
	// Upsert inserts or replaces the vector stored under id.
	Upsert(id int, vec []float64) error
	// SearchKNN returns up to k nearest indexed points to q with Euclidean
	// distances, nearest first.
	SearchKNN(q []float64, k int) []hnsw.Result
}

// The scoring constants. Lambda and alpha are calibrated for
// unit-normalised embeddings (pairwise distances in [0, 2]): the edge
// threshold -ln(alpha)/lambda ≈ 1.05 connects samples within roughly a 60°
// angle. k is sized for the scaled-down datasets.
//
// neighborMax normalises the x_other term of Eq. 4 by the maximum possible
// neighbour count. The paper uses hnswlib's default of 500 because its
// neighbour lists can grow that long; here lists are capped at k, so the
// equivalent normaliser is k — it keeps Part2 in [0, 1] exactly as in the
// paper's setting.
//
// homAlpha is the stricter similarity bar a neighbour must clear to enter a
// high-degree node's stored neighbour list (the Homophily Cache's
// substitution set). Edges at alpha capture class structure for scoring;
// substitution additionally requires near-duplicate similarity, per the
// paper's argument that replacing a sample is safe only for "duplicate or
// highly similar" counterparts.
const (
	lambda      = 1.0  // similarity decay rate (Eq. 2)
	alpha       = 0.35 // edge threshold on similarity (Eq. 3)
	k           = 24   // neighbours retrieved per scored sample
	neighborMax = k    // normaliser in Eq. 4
	homAlpha    = 0.65
)

// ScoreResult is the outcome of scoring one sample.
type ScoreResult struct {
	ID        int
	Score     float64
	Same      int   // same-class graph neighbours (includes self)
	Other     int   // different-class graph neighbours
	Neighbors []int // IDs of edge-connected neighbours, self excluded
	// CloseNeighbors is the subset of Neighbors above the stricter
	// homAlpha similarity bar and sharing this node's class — the IDs this
	// node may substitute for when installed into the Homophily Cache.
	// (A substitute with a different label would silently change the
	// supervision signal; "duplicate or highly similar" samples in the
	// paper's sense are same-class by construction.)
	CloseNeighbors []int
}

// Degree returns the node's edge count (self excluded).
func (r ScoreResult) Degree() int { return len(r.Neighbors) }

// Grapher maintains global importance scores over the training set.
//
// Single calls (Update, Score, the stat readers) are not safe for concurrent
// use; ScoreBatch is the concurrency entry point — it forks per-sample
// scoring through par.For internally while presenting a serial interface
// to the caller.
type Grapher struct {
	searcher NeighborSearcher
	labels   []int
	scores   []float64
	scored   []bool
	// distance thresholds equivalent to sim > alpha (resp. homAlpha):
	// d < -ln(alpha)/lambda.
	distThresh    float64
	homDistThresh float64

	// normBuf is the reusable normalisation buffer for the serial
	// Update/Score path, so per-sample scoring stops allocating.
	normBuf []float64

	// searchCalls counts SearchKNN calls; atomic because the scoring
	// fan-out increments it from worker goroutines.
	searchCalls atomic.Int64

	// Incrementally maintained score statistics: the elastic manager reads
	// σ every epoch and the substitution gate reads the mean, so keeping
	// them here turns those former O(n) scans into O(1) reads. Maintained
	// in Welford form (running mean + M2) rather than sum/sum-of-squares,
	// because batches of near-identical scores would lose the E[x²]−E[x]²
	// form to cancellation. recordScore keeps them in sync with
	// scores/scored, retiring the old contribution on rescoring.
	statN    int
	statMean float64
	statM2   float64 // sum of squared deviations from the running mean
}

// New builds a Grapher over a dataset with the given per-sample labels.
// searcher starts empty and is populated by Update calls as batches flow
// through training.
func New(labels []int, searcher NeighborSearcher) (*Grapher, error) {
	if searcher == nil {
		return nil, fmt.Errorf("semgraph: searcher must not be nil")
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("semgraph: empty label set")
	}
	g := &Grapher{
		searcher:      searcher,
		labels:        labels,
		scores:        make([]float64, len(labels)),
		scored:        make([]bool, len(labels)),
		distThresh:    -math.Log(alpha) / lambda,
		homDistThresh: -math.Log(homAlpha) / lambda,
	}
	return g, nil
}

// SearchCalls reports the cumulative number of SearchKNN calls this grapher
// has issued. Safe for concurrent reads.
func (g *Grapher) SearchCalls() int64 { return g.searchCalls.Load() }

// NormalizeInto writes the L2-normalised copy of vec that the grapher
// indexes and scores into dst, reusing its storage when it has sufficient
// capacity (dst may be nil or an earlier return value of this function).
// Normalisation puts every embedding on the unit sphere so the similarity
// decay (Eq. 2) and edge threshold (Eq. 3) operate on a bounded,
// architecture-independent distance scale — the same reason cosine
// distance is the default in embedding retrieval systems. It returns the
// normalised slice; zero vectors come back as zeros. vec is never
// modified, and the result aliases dst, not vec.
func NormalizeInto(dst, vec []float64) []float64 {
	if cap(dst) < len(vec) {
		dst = make([]float64, len(vec))
	} else {
		dst = dst[:len(vec)]
	}
	var n float64
	for _, v := range vec {
		n += v * v
	}
	if n == 0 {
		copy(dst, vec)
		return dst
	}
	n = 1 / math.Sqrt(n)
	for i, v := range vec {
		dst[i] = v * n
	}
	return dst
}

// Update inserts or refreshes the embedding of sample id in the ANN index
// (line 15 of the paper's Algorithm 1). The embedding is L2-normalised
// before indexing.
func (g *Grapher) Update(id int, embedding []float64) error {
	if id < 0 || id >= len(g.labels) {
		return fmt.Errorf("semgraph: id %d out of range [0,%d)", id, len(g.labels))
	}
	// Searchers copy the vector on Upsert, so the reusable buffer is safe
	// to hand over and immediately reuse.
	g.normBuf = NormalizeInto(g.normBuf, embedding)
	return g.searcher.Upsert(id, g.normBuf)
}

// Score computes the global importance of sample id from its current
// embedding (lines 16-21 of Algorithm 1) and records it in the global score
// table. The embedding passed is the one just produced by the forward pass.
func (g *Grapher) Score(id int, embedding []float64) (ScoreResult, error) {
	if id < 0 || id >= len(g.labels) {
		return ScoreResult{}, fmt.Errorf("semgraph: id %d out of range [0,%d)", id, len(g.labels))
	}
	g.normBuf = NormalizeInto(g.normBuf, embedding)
	res := g.computeScore(id, g.normBuf)
	g.recordScore(res)
	return res, nil
}

// computeScore evaluates Eq. 4 for sample id from its normalised embedding q
// (lines 16-21 of Algorithm 1). It only reads grapher state and the
// searcher, so ScoreBatch may call it from many workers at once.
func (g *Grapher) computeScore(id int, q []float64) ScoreResult {
	res := ScoreResult{ID: id, Same: 1} // self counts as a same-class neighbour
	g.searchCalls.Add(1)
	hits := g.searcher.SearchKNN(q, k)
	for _, h := range hits {
		if h.ID == id {
			continue
		}
		if h.Dist >= g.distThresh { // sim(x,y) <= alpha: no edge
			continue
		}
		res.Neighbors = append(res.Neighbors, h.ID)
		if g.labels[h.ID] == g.labels[id] {
			res.Same++
			if h.Dist < g.homDistThresh {
				res.CloseNeighbors = append(res.CloseNeighbors, h.ID)
			}
		} else {
			res.Other++
		}
	}
	res.Score = math.Log(1/float64(res.Same) + float64(res.Other)/float64(neighborMax) + 1)
	return res
}

// recordScore installs a computed score into the global table, keeping the
// incremental statistics in sync. Rescoring a sample first retires its
// previous contribution.
func (g *Grapher) recordScore(res ScoreResult) {
	id := res.ID
	if g.scored[id] {
		g.statRemove(g.scores[id])
	} else {
		g.scored[id] = true
	}
	g.scores[id] = res.Score
	g.statAdd(res.Score)
}

// statAdd folds one score into the Welford accumulators.
func (g *Grapher) statAdd(x float64) {
	g.statN++
	d := x - g.statMean
	g.statMean += d / float64(g.statN)
	g.statM2 += d * (x - g.statMean)
}

// statRemove retires one previously added score (reverse Welford update).
func (g *Grapher) statRemove(x float64) {
	if g.statN <= 1 {
		g.statN, g.statMean, g.statM2 = 0, 0, 0
		return
	}
	d := x - g.statMean
	newMean := g.statMean - d/float64(g.statN-1)
	g.statM2 -= d * (x - newMean)
	if g.statM2 < 0 {
		g.statM2 = 0
	}
	g.statMean = newMean
	g.statN--
}

// ScoreOf returns the last recorded global score for id (0 before the first
// scoring pass touches it).
func (g *Grapher) ScoreOf(id int) float64 { return g.scores[id] }

// ScoreMean returns the mean score over all scored samples (0 when none).
// O(1): maintained incrementally by recordScore.
func (g *Grapher) ScoreMean() float64 {
	if g.statN == 0 {
		return 0
	}
	return g.statMean
}

// ScoreStd returns the standard deviation of the scores of all scored
// samples — the σ the Elastic Cache Manager's Importance Monitor tracks
// (Eq. 5). It returns 0 when fewer than two samples have been scored.
// O(1): read from the Welford accumulators maintained by recordScore (the
// former per-call scan was O(n) on every batch of the hot loop, since the
// elastic manager reads σ each epoch and the substitution gate reads the
// mean).
func (g *Grapher) ScoreStd() float64 {
	if g.statN < 2 {
		return 0
	}
	return math.Sqrt(g.statM2 / float64(g.statN))
}

// K returns the neighbour count each scored sample retrieves.
func (g *Grapher) K() int { return k }
