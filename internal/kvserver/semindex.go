package kvserver

import (
	"sync"

	"spidercache/internal/hnsw"
)

// semIndex is the node-local semantic index behind NGET: a thin
// key<->id bookkeeping layer over internal/hnsw, which speaks dense
// integer ids.
//
// Concurrency regime (matches the store's): upserts arrive from the
// connection goroutine serving ESET and take x.mu exclusively; lookups
// run the HNSW search entirely OUTSIDE x.mu (hnsw.Index has its own
// RWMutex and is safe for concurrent use), then enter x.mu only to
// map result ids back to keys. Lock order is x.mu -> hnsw's mutex;
// x.mu never nests inside a shard mutex and never wraps a store call —
// the lock graph stays acyclic (spiderlint lockorder verifies this
// module-wide).
//
// Deletion: eviction and the ESET of a key that is not resident delete
// the point from the graph in place (hnsw.Index.Delete), at about the
// price of an upsert, and the next new key takes the slot. The graph
// therefore holds the live embeddings and nothing else: no search result
// needs filtering for staleness beyond the one race below, and there is
// no rebuild. An ESET that moves a resident key's embedding only stores
// the vector; the re-link waits for the next operation that reads or
// changes the graph (hnsw package doc), so one NGET, eviction or insert
// may first re-link the keys of every ESET before it, spread over all
// cores (BenchmarkNGetAfterESets: its latency grows with their number).
// An NGET for exactly the embedding a re-linked key now holds reads the
// re-link's own search, the key first, until the next ESET or unlink.
// Ids are never reused, so a search racing an unlink can at worst
// surface a freshly-unmapped id, which the byID lookup (and the
// caller's store-residency check) drops.
type semIndex struct {
	mu    sync.Mutex
	ix    *hnsw.Index // set once; the embedding dimensionality is its Dim()
	byKey map[string]int
	byID  map[int]string
	next  int // next id to assign; monotone, never reused
}

// semSearchK is how many nearest neighbors an NGET lookup considers
// before giving up on finding a resident one inside the threshold.
const semSearchK = 8

// semSearchEf is the HNSW beam width for NGET lookups.
const semSearchEf = 64

func newSemIndex() *semIndex {
	ix, _ := hnsw.New(hnsw.DefaultConfig()) // its error is always nil
	return &semIndex{ix: ix, byKey: make(map[string]int), byID: make(map[int]string)}
}

// upsert indexes vec (already unit-normalized) under key. The first
// upsert into an empty index fixes the dimensionality until the index
// is empty again; mismatches are rejected with the stable protocol
// error and change nothing.
func (x *semIndex) upsert(key string, vec []float64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	id, known := x.byKey[key]
	if !known {
		id = x.next
	}
	if err := x.ix.Upsert(id, vec); err != nil {
		return errBadEmbedDim // the one thing hnsw refuses a non-empty vector for
	}
	if !known {
		x.next++
		x.byKey[key] = id
		x.byID[id] = key
	}
	return nil
}

// unlink removes key's embedding from the index (eviction and the ESET
// of a key that is not resident both land here) and reports whether
// there was one. Unknown keys are a no-op, so callers never need to
// check whether an embedding was ever attached.
func (x *semIndex) unlink(key string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	id, ok := x.byKey[key]
	if !ok {
		return false
	}
	delete(x.byKey, key)
	delete(x.byID, id)
	x.ix.Delete(id)
	return true
}

// semNeighbor is one lookup candidate: a key and its cosine distance
// to the query, ascending.
type semNeighbor struct {
	key  string
	dist float64
}

// lookup returns up to semSearchK indexed neighbors of q (cosine
// distance ascending). Callers still must check each candidate for
// store residency and threshold — the index can run ahead of (or
// behind) the store by design. A query of another dimensionality than
// the index's returns nil: at search time it only means "this node has
// no comparable embeddings", which must read as a miss, not a protocol
// error.
func (x *semIndex) lookup(q []float64) []semNeighbor {
	// The search runs outside x.mu; hnsw's own RWMutex orders it against
	// concurrent upserts and deletes.
	res := x.ix.SearchKNNEf(q, semSearchK, semSearchEf)
	out := make([]semNeighbor, 0, len(res))
	x.mu.Lock()
	for _, r := range res {
		key, ok := x.byID[r.ID]
		if !ok {
			continue // unlinked between the search and now
		}
		// hnsw distances are Euclidean; for unit vectors
		// ‖a−b‖² = 2(1 − a·b), so cosine distance is d²/2.
		out = append(out, semNeighbor{key: key, dist: r.Dist * r.Dist / 2})
	}
	x.mu.Unlock()
	return out
}

// size returns the index's point counts: live embeddings, and slots
// that deleted ones left and no new one has taken yet.
func (x *semIndex) size() (live, free int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.byKey), x.ix.Free()
}
