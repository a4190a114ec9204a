package kvserver

import (
	"sort"
	"sync"

	"spidercache/internal/hnsw"
)

// semIndex is the node-local semantic index behind NGET: a thin
// key<->id bookkeeping layer over internal/hnsw, which speaks dense
// integer ids and has no delete operation.
//
// Concurrency regime (matches the store's): upserts arrive from the
// connection goroutine serving ESET and take x.mu exclusively; lookups
// run the HNSW search entirely OUTSIDE x.mu (hnsw.Index has its own
// RWMutex and is safe for concurrent use), then re-enter x.mu only to
// map result ids back to keys. x.mu therefore never nests inside a
// shard mutex and never wraps a store call — the lock graph stays
// acyclic (spiderlint lockorder verifies this module-wide).
//
// Deletion: HNSW cannot unlink a point, so DEL/eviction tombstones the
// key here (the id simply loses its byID mapping and search results
// that surface it are filtered out). Once tombstones outnumber live
// points — with an absolute floor so small indexes never churn — the
// index is rebuilt from the live vectors. Ids are never reused, so a
// search racing a rebuild can at worst surface a freshly-dead id,
// which the byID filter (and the caller's store-residency check)
// drops.
type semIndex struct {
	mu    sync.Mutex
	ix    *hnsw.Index
	byKey map[string]int
	byID  map[int]string
	next  int // next id to assign; monotone, never reused
	dim   int // embedding dimensionality, fixed by the first upsert
	dead  int // tombstoned points still linked inside ix
}

// semRebuildMinDead is the tombstone floor below which the index never
// rebuilds.
const semRebuildMinDead = 64

// semSearchK is how many nearest neighbors an NGET lookup considers
// before giving up on finding a resident one inside the threshold.
const semSearchK = 8

// semSearchEf is the HNSW beam width for NGET lookups.
const semSearchEf = 64

func newSemIndex() *semIndex {
	ix, err := hnsw.New(hnsw.DefaultConfig())
	if err != nil {
		// DefaultConfig always validates; a failure here is a programming
		// error in this package, not a runtime condition.
		panic(err)
	}
	return &semIndex{ix: ix, byKey: make(map[string]int), byID: make(map[int]string)}
}

// upsert indexes vec (already unit-normalized) under key. The first
// upsert fixes the index dimensionality; later mismatches are rejected
// with the stable protocol error.
func (x *semIndex) upsert(key string, vec []float64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.dim == 0 {
		x.dim = len(vec)
	} else if len(vec) != x.dim {
		return errBadEmbedDim
	}
	id, ok := x.byKey[key]
	if !ok {
		id = x.next
		x.next++
		x.byKey[key] = id
		x.byID[id] = key
	}
	if err := x.ix.Upsert(id, vec); err != nil {
		// Unreachable after the dim gate above, but never leave a phantom
		// mapping behind if hnsw grows new failure modes.
		if !ok {
			delete(x.byKey, key)
			delete(x.byID, id)
		}
		return errBadEmbedDim
	}
	return nil
}

// unlink tombstones key's embedding (DEL and eviction both land here).
// Unknown keys are a no-op, so callers never need to check whether an
// embedding was ever attached.
func (x *semIndex) unlink(key string) {
	x.mu.Lock()
	id, ok := x.byKey[key]
	if !ok {
		x.mu.Unlock()
		return
	}
	delete(x.byKey, key)
	delete(x.byID, id)
	x.dead++
	if x.dead >= semRebuildMinDead && x.dead > len(x.byKey) {
		x.rebuild()
	}
	x.mu.Unlock()
}

// rebuild reindexes the live points into a fresh HNSW graph, shedding
// every tombstone. Caller holds x.mu. O(live · insert); amortized by
// the dead > live trigger, the same argument as arena compaction.
//
// Points go in by ascending id, the order they first arrived in: an HNSW
// graph is a function of its insertion order, so walking a map here would
// make every later NEAR reply depend on Go's map iteration order.
func (x *semIndex) rebuild() {
	fresh, err := hnsw.New(hnsw.DefaultConfig())
	if err != nil {
		panic(err)
	}
	ids := make([]int, 0, len(x.byID))
	for id := range x.byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		// A missing vector cannot happen (ids are only mapped after a
		// successful Upsert), but must not nuke the mapping's invariants:
		// drop the key instead.
		vec := x.ix.Vector(id)
		if vec == nil || fresh.Upsert(id, vec) != nil {
			delete(x.byKey, x.byID[id])
			delete(x.byID, id)
		}
	}
	x.ix = fresh
	x.dead = 0
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
// behind) the store by design. A dimension mismatch returns nil: at
// search time it only means "this node has no comparable embeddings",
// which must read as a miss, not a protocol error.
func (x *semIndex) lookup(q []float64) []semNeighbor {
	x.mu.Lock()
	ix, dim, dead := x.ix, x.dim, x.dead
	x.mu.Unlock()
	if dim == 0 || len(q) != dim {
		return nil
	}
	// Widen the beam past the tombstone population so dead top-k entries
	// can't mask live ones further out.
	k := semSearchK + dead
	if k > semSearchEf {
		k = semSearchEf
	}
	// The search runs outside x.mu on the captured index; hnsw's own
	// RWMutex orders it against concurrent upserts. A rebuild racing us
	// swaps x.ix, leaving this search on the pre-rebuild graph — stale
	// but safe, and the byID filter below applies current liveness.
	res := ix.SearchKNNEf(q, k, semSearchEf)
	out := make([]semNeighbor, 0, len(res))
	x.mu.Lock()
	for _, r := range res {
		key, ok := x.byID[r.ID]
		if !ok {
			continue // tombstoned between search and now
		}
		// hnsw distances are Euclidean; for unit vectors
		// ‖a−b‖² = 2(1 − a·b), so cosine distance is d²/2.
		out = append(out, semNeighbor{key: key, dist: r.Dist * r.Dist / 2})
		if len(out) == semSearchK {
			break
		}
	}
	x.mu.Unlock()
	return out
}

// size returns (live, dead) point counts.
func (x *semIndex) size() (live, dead int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.byKey), x.dead
}
