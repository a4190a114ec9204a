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
// map result ids back to keys. Lock order is x.mu -> hnsw's mutex, and
// hnsw calls nothing in this package, so it cannot be inverted; x.mu
// never nests inside a shard mutex and never wraps a store call.
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
// re-link's own search, the key first, until the next ESET or unlink: a
// lookup searches at semSearchEf, narrower than the index's EfSearch, and
// hnsw answers any width up to EfSearch from that search.
// Ids are never reused, so a search racing an unlink can at worst
// surface a freshly-unmapped id, which the byID lookup (and the
// caller's store-residency check) drops.
type semIndex struct {
	mu    sync.Mutex
	ix    *hnsw.Index // set once; it fixes the embedding dimensionality (see upsert)
	byKey map[string]int
	byID  map[int]string
	next  int // next id to assign; monotone, never reused
}

// semSearchK is how many nearest neighbors an NGET lookup considers
// before giving up on finding a resident one inside the threshold.
const semSearchK = 8

// semSearchEf is the beam width of an NGET lookup: three times the
// results it keeps, where the index's EfSearch of 64 is sized for the
// trainer's 24. On wire_nget's key space after 40 000 evictions
// (TestSemIndexRecallAtWidth), the first result is the exact nearest
// resident for 0.9997 of 3 000 queries at width 24, 1.0000 at 32 and 64,
// and 0.9973 at 16; at 24, every query with a resident inside the 0.3
// threshold gets a result inside it.
const semSearchEf = 3 * semSearchK

func newSemIndex() *semIndex {
	ix, _ := hnsw.New(hnsw.DefaultConfig()) // its error is always nil
	return &semIndex{ix: ix, byKey: make(map[string]int), byID: make(map[int]string)}
}

// upsert indexes vec (already unit-normalized) under key, copied into a
// string for a new key only. The first upsert into an empty index fixes
// the dimensionality until the index is empty again; mismatches are
// rejected with the stable protocol error and change nothing.
func (x *semIndex) upsert(key []byte, vec []float64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	id, known := x.byKey[string(key)]
	if !known {
		id = x.next
	}
	if err := x.ix.Upsert(id, vec); err != nil {
		return errBadEmbedDim // the one thing hnsw refuses a non-empty vector for
	}
	if !known {
		x.next++
		k := string(key)
		x.byKey[k] = id
		x.byID[id] = k
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
// distance ascending) in sess.near, searching into sess.res, so that a
// session's lookups allocate nothing. Callers still must check each
// candidate for store residency and threshold — the index can run ahead
// of (or behind) the store by design. A query of another dimensionality
// than the index's finds nothing: at search time it only means "this
// node has no comparable embeddings", which must read as a miss, not a
// protocol error.
func (x *semIndex) lookup(sess *session, q []float64) []semNeighbor {
	// The search runs outside x.mu; hnsw's own RWMutex orders it against
	// concurrent upserts and deletes.
	sess.res = x.ix.SearchKNNEf(sess.res, q, semSearchK, semSearchEf)
	sess.near = sess.near[:0]
	x.mu.Lock()
	for _, r := range sess.res {
		key, ok := x.byID[r.ID]
		if !ok {
			continue // unlinked between the search and now
		}
		// hnsw distances are Euclidean; for unit vectors
		// ‖a−b‖² = 2(1 − a·b), so cosine distance is d²/2.
		sess.near = append(sess.near, semNeighbor{key: key, dist: r.Dist * r.Dist / 2})
	}
	x.mu.Unlock()
	return sess.near
}

// size returns the index's point counts: live embeddings, and slots
// that deleted ones left and no new one has taken yet.
func (x *semIndex) size() (live, free int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.byKey), x.ix.Free()
}
