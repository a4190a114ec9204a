package semgraph

import (
	"fmt"
	"runtime"

	"spidercache/internal/par"
)

// minParallelBatch is the batch size below which ScoreBatch stays serial;
// fork/join overhead dominates tiny batches.
const minParallelBatch = 4

// ScoreBatch runs the per-batch half of Algorithm 1 (lines 15-21) for a
// whole mini-batch: it first upserts every embedding into the ANN index,
// then recomputes each sample's global importance score and records it in
// the score table. ids[i] pairs with embeddings[i]; duplicate ids are
// allowed (substitute serving can train the same host twice) and the last
// occurrence's score wins, exactly as sequential Score calls would behave.
//
// Scoring fans out into GOMAXPROCS par.For blocks: once the upserts
// complete the index is read-only for the rest of the call, and per-sample
// scores are independent, so the parallel result is bitwise-identical to
// serial scoring — Algorithm 1 semantics and determinism are preserved. Score
// recording happens serially in input order after the parallel phase.
//
// Every sample is upserted and searched once on every call, as Algorithm
// 1 does: no neighbourhood outlives the batch that computed it. With the
// HNSW index that one search is often the update's own: the settle that
// re-links a moved point searches for its new vector, and the point's
// scoring search, for the same vector straight after, reads that search's
// result instead of running again (hnsw package doc).
//
// ScoreBatch must not run concurrently with other Grapher calls; it is the
// batch-level replacement for an Update+Score loop, not a thread-safe API.
func (g *Grapher) ScoreBatch(ids []int, embeddings [][]float64) ([]ScoreResult, error) {
	if len(ids) != len(embeddings) {
		return nil, fmt.Errorf("semgraph: %d ids for %d embeddings", len(ids), len(embeddings))
	}
	for _, id := range ids {
		if id < 0 || id >= len(g.labels) {
			return nil, fmt.Errorf("semgraph: id %d out of range [0,%d)", id, len(g.labels))
		}
	}
	// Phase 1 — serial upserts (the ANN_index.update of Algorithm 1 line
	// 15). The normalisation buffer is reused across samples; searchers
	// copy on Upsert. The HNSW index only copies the vectors here: the
	// first search of Phase 2 re-links the batch's moved points, on all
	// cores, before any search reads the graph, and keeps what it found
	// for each of them for that point's own search (hnsw package doc).
	for i, id := range ids {
		g.normBuf = NormalizeInto(g.normBuf, embeddings[i])
		if err := g.searcher.Upsert(id, g.normBuf); err != nil {
			return nil, fmt.Errorf("semgraph: upsert id %d: %w", id, err)
		}
	}

	// Phase 2 — score fan-out over the now-frozen index. Each block
	// keeps its own normalisation buffer; computeScore only reads shared
	// state and each block writes disjoint result slots.
	results := make([]ScoreResult, len(ids))
	w := runtime.GOMAXPROCS(0)
	if len(ids) < minParallelBatch {
		w = 1
	}
	par.For(w, len(ids), func(start, end int) {
		var buf []float64
		for i := start; i < end; i++ {
			buf = NormalizeInto(buf, embeddings[i])
			results[i] = g.computeScore(ids[i], buf)
		}
	})

	// Phase 3 — serial recording in input order, so duplicates resolve the
	// same way a sequential Score loop would and the incremental statistics
	// stay exact.
	for i := range results {
		g.recordScore(results[i])
	}
	return results, nil
}
