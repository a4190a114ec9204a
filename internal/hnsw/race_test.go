package hnsw

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spidercache/internal/leakcheck"
	"spidercache/internal/xrand"
)

// TestConcurrentUpsertSearch stresses the RWMutex contract: writers upsert
// (inserts and in-place updates) while readers run SearchKNN and the other
// read-only accessors. Run under -race this verifies no search touches index
// state mutably and no mutation escapes the exclusive lock.
func TestConcurrentUpsertSearch(t *testing.T) {
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		dim      = 16
		writers  = 4
		readers  = 4
		nPerGoro = 150
	)
	// Seed a few points so early searches have something to traverse.
	seed := xrand.New(99)
	for i := 0; i < 32; i++ {
		if err := ix.Upsert(i, randomVec(dim, seed)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + w))
			for i := 0; i < nPerGoro; i++ {
				// Half fresh inserts, half updates of the seeded range.
				id := 32 + w*nPerGoro + i
				if i%2 == 1 {
					id = i % 32
				}
				if err := ix.Upsert(id, randomVec(dim, rng)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(2000 + r))
			for i := 0; i < nPerGoro; i++ {
				q := randomVec(dim, rng)
				res := ix.SearchKNN(q, 8)
				for j := 1; j < len(res); j++ {
					if res[j].Dist < res[j-1].Dist {
						t.Errorf("reader %d: results unsorted", r)
						return
					}
				}
				_ = ix.Len()
				_ = indexed(ix, i%32)
				_ = storedVector(ix, i%32)
			}
		}(r)
	}
	wg.Wait()

	if got := ix.Len(); got < 32 {
		t.Fatalf("index shrank to %d points", got)
	}
	// The index must still be coherent after the storm.
	res := ix.SearchKNN(randomVec(dim, seed), 10)
	if len(res) == 0 {
		t.Fatal("no results after concurrent stress")
	}
}

// TestSearchWhileArenasGrow has readers searching and reading vectors while
// one writer grows an index from a handful of points to over a thousand, so
// that the vector arena, the layer-0 adjacency and the node slice are each
// reallocated several times under them. A search that kept a row of an old
// arena across the writer's lock would show up under -race, or as a result
// that is unsorted, has the wrong length or names an id never inserted.
func TestSearchWhileArenasGrow(t *testing.T) {
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		dim     = 16
		seeded  = 8
		total   = 1200
		readers = 4
		k       = 8
	)
	rng := xrand.New(7)
	for i := 0; i < seeded; i++ {
		if err := ix.Upsert(i, randomVec(dim, rng)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(3000 + r))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res := ix.SearchKNN(randomVec(dim, rng), k)
				if len(res) != k {
					t.Errorf("reader %d: %d results, want %d", r, len(res), k)
					return
				}
				for j, hit := range res {
					if hit.ID < 0 || hit.ID >= total || (j > 0 && hit.Dist < res[j-1].Dist) {
						t.Errorf("reader %d: bad result list %+v", r, res)
						return
					}
				}
				if v := storedVector(ix, i%seeded); len(v) != dim {
					t.Errorf("reader %d: Vector has %d components, want %d", r, len(v), dim)
					return
				}
			}
		}(r)
	}
	grown, lastCap := 0, 0
	for i := seeded; i < total; i++ {
		if err := ix.Upsert(i, randomVec(dim, rng)); err != nil {
			t.Error(err)
			break
		}
		ix.mu.RLock()
		if c := cap(ix.vecs); c != lastCap {
			grown, lastCap = grown+1, c
		}
		ix.mu.RUnlock()
	}
	close(done)
	wg.Wait()
	if grown < 4 {
		t.Fatalf("vector arena reallocated %d times; the test wants several", grown)
	}
	if got := ix.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
}

// TestDeleteWhileSearching has readers searching while one writer turns the
// index over: it deletes the oldest point and inserts a new one into the
// slot, and twice on the way deletes everything and starts again in another
// dimensionality. A search must never return an id that was deleted before
// it began or was never inserted, whatever free slots it passes through,
// and -race must see no search reading what Delete writes outside the lock.
func TestDeleteWhileSearching(t *testing.T) {
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		live    = 128
		rounds  = 3
		perRnd  = 300
		readers = 4
		k       = 8
	)
	// Ids only grow, so one number bounds what a search may return: ids
	// below oldest were deleted before the search began.
	var oldest, next atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(4000 + r))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				lo := oldest.Load()
				// Dimensionalities the writer uses, and one it never does.
				res := ix.SearchKNN(randomVec(8+4*(i%4), rng), k)
				hi := next.Load()
				for j, hit := range res {
					if int64(hit.ID) < lo || int64(hit.ID) >= hi || (j > 0 && hit.Dist < res[j-1].Dist) {
						t.Errorf("reader %d: bad result list %+v with ids [%d, %d) live", r, res, lo, hi)
						return
					}
				}
				_ = ix.Len() + ix.Free()
				_ = storedVector(ix, int(lo))
			}
		}(r)
	}
	rng := xrand.New(8)
	for round := 0; round < rounds; round++ {
		dim := 8 + 4*round
		insert := func() {
			id := next.Load()
			// Readers may see the id as soon as Upsert returns.
			next.Store(id + 1)
			if err := ix.Upsert(int(id), randomVec(dim, rng)); err != nil {
				t.Error(err)
			}
		}
		remove := func() {
			id := oldest.Load()
			if !ix.Delete(int(id)) {
				t.Errorf("id %d was not there to delete", id)
			}
			oldest.Store(id + 1)
		}
		for i := 0; i < live; i++ {
			insert()
		}
		for i := 0; i < perRnd; i++ {
			remove()
			insert()
		}
		for ix.Len() > 0 {
			remove()
		}
	}
	close(done)
	wg.Wait()
	if ix.Len() != 0 || ix.Free() != 0 || indexDim(ix) != 0 {
		t.Fatalf("emptied index holds %d points, %d free slots, dim %d", ix.Len(), ix.Free(), indexDim(ix))
	}
}

func randomVec(dim int, rng *xrand.Rand) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestUpdatesRaceReads has writers moving existing points far enough to be
// due a re-link while readers search and one goroutine deletes and
// re-inserts points: every search and delete first settles whatever the
// writers left due, the readers decide on the unlocked unsettled flag
// whether to, and a settle selects on several par.For blocks. Under -race
// this checks that the flag, the fork and the install are ordered by the
// index's lock; the graph must come out whole, and no block's goroutine
// may outlive the test.
func TestUpdatesRaceReads(t *testing.T) {
	leakcheck.Check(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		dim     = 16
		points  = 256
		writers = 3
		readers = 3
		rounds  = 200
	)
	rng := xrand.New(11)
	for i := 0; i < points; i++ {
		if err := ix.Upsert(i, randomVec(dim, rng)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(5000 + w))
			for i := 0; i < rounds; i++ {
				// Ids of the writer's own third: an update of a live point,
				// or an insert when the deleter has the id out.
				if err := ix.Upsert(w+writers*rng.Intn(points/writers), randomVec(dim, rng)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := xrand.New(uint64(6000 + r))
			for i := 0; i < rounds; i++ {
				res := ix.SearchKNN(randomVec(dim, rng), 8)
				for j, hit := range res {
					if hit.ID < 0 || hit.ID >= points || (j > 0 && hit.Dist < res[j-1].Dist) {
						t.Errorf("reader %d: bad result list %+v", r, res)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(7000)
		for i := 0; i < rounds/4; i++ {
			id := rng.Intn(points)
			if ix.Delete(id) {
				if err := ix.Upsert(id, randomVec(dim, rng)); err != nil {
					t.Errorf("re-insert %d: %v", id, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	ix.Links()
	checkGraph(t, ix)
	if ix.Len() != points {
		t.Fatalf("Len = %d, want %d", ix.Len(), points)
	}
}
