package hnsw

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"spidercache/internal/xrand"
)

// checkGraph asserts what must hold of an index between any two operations,
// whatever their history.
func checkGraph(t testing.TB, ix *Index) {
	t.Helper()
	live := 0
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		slot, mapped := ix.byID[nd.id]
		if isLive := mapped && slot == uint32(i); isLive == nd.free {
			t.Fatalf("slot %d (id %d): free=%v but byID says live=%v", i, nd.id, nd.free, isLive)
		}
		if !nd.free {
			live++
			if len(nd.upper) > ix.maxLv {
				t.Fatalf("slot %d has level %d above maxLv %d", i, len(nd.upper), ix.maxLv)
			}
		}
		for l := 0; l <= len(nd.upper); l++ {
			links := ix.links(uint32(i), l)
			if len(links) > ix.layerCap(l) {
				t.Fatalf("slot %d layer %d holds %d links, cap %d", i, l, len(links), ix.layerCap(l))
			}
			for j, nb := range links {
				switch {
				case int(nb) >= len(ix.nodes):
					t.Fatalf("slot %d layer %d links to slot %d of %d", i, l, nb, len(ix.nodes))
				case nb == uint32(i):
					t.Fatalf("slot %d layer %d links to itself", i, l)
				case len(ix.nodes[nb].upper) < l:
					t.Fatalf("slot %d layer %d links to slot %d of level %d", i, l, nb, len(ix.nodes[nb].upper))
				case slices.Contains(links[:j], nb):
					t.Fatalf("slot %d layer %d links to slot %d twice", i, l, nb)
				}
			}
		}
	}
	if live != len(ix.byID) || live+len(ix.free) != len(ix.nodes) {
		t.Fatalf("%d live slots, %d ids, %d free, %d slots", live, len(ix.byID), len(ix.free), len(ix.nodes))
	}
	for i, slot := range ix.free {
		if !ix.nodes[slot].free || slices.Contains(ix.free[:i], slot) {
			t.Fatalf("free list %v holds slot %d wrongly", ix.free, slot)
		}
	}
	due := 0
	for i := range ix.nodes {
		if ix.nodes[i].due {
			due++
		}
	}
	if due != len(ix.due) || ix.unsettled.Load() != (due > 0) {
		t.Fatalf("%d points marked due, %d on the due list, unsettled=%v", due, len(ix.due), ix.unsettled.Load())
	}
	for _, slot := range ix.due {
		if !ix.nodes[slot].due || ix.nodes[slot].free {
			t.Fatalf("due list %v holds slot %d wrongly", ix.due, slot)
		}
	}
	switch {
	case live == 0:
		if ix.entry != -1 || ix.dim != 0 || len(ix.nodes) != 0 {
			t.Fatalf("empty index has entry %d, dim %d, %d slots", ix.entry, ix.dim, len(ix.nodes))
		}
	case ix.entry < 0 || ix.nodes[ix.entry].free || len(ix.nodes[ix.entry].upper) != ix.maxLv:
		t.Fatalf("entry %d is no live point of level maxLv %d", ix.entry, ix.maxLv)
	}
}

// oracle is the brute-force model an index is checked against.
type oracle struct {
	vecs map[int][]float64
	peak int // most points held at once since last empty
}

func (o *oracle) set(id int, v []float64) {
	o.vecs[id] = v
	o.peak = max(o.peak, len(o.vecs))
}

func (o *oracle) del(id int) {
	delete(o.vecs, id)
	if len(o.vecs) == 0 {
		o.peak = 0
	}
}

// knn returns the k nearest ids by exact distance, ties by id.
func (o *oracle) knn(q []float64, k int) []int {
	ids := make([]int, 0, len(o.vecs))
	for id := range o.vecs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := sqDist(o.vecs[ids[a]], q), sqDist(o.vecs[ids[b]], q)
		return da < db || (da == db && ids[a] < ids[b])
	})
	return ids[:min(k, len(ids))]
}

// check compares the index with the model: sizes, one id's membership and
// vector, and one search, whose hits it returns as (found, wanted) for the
// caller's recall count.
func (o *oracle) check(t testing.TB, ix *Index, id int, q []float64, k int) (found, wanted int) {
	t.Helper()
	checkGraph(t, ix)
	if ix.Len() != len(o.vecs) {
		t.Fatalf("Len = %d, model holds %d", ix.Len(), len(o.vecs))
	}
	if slots := ix.Len() + ix.Free(); slots > o.peak {
		t.Fatalf("%d slots for a peak of %d live points", slots, o.peak)
	}
	// A nil Vector for an id the model does not hold compares equal to the
	// model's missing entry.
	want, ok := o.vecs[id]
	if indexed(ix, id) != ok || !reflect.DeepEqual(storedVector(ix, id), want) {
		t.Fatalf("id %d: indexed=%v vector=%v, model %v %v", id, indexed(ix, id), storedVector(ix, id), ok, want)
	}
	res := ix.SearchKNN(q, k)
	seen := make(map[int]bool, len(res))
	for i, r := range res {
		v, ok := o.vecs[r.ID]
		switch {
		case !ok:
			t.Fatalf("search returned id %d, which the model does not hold", r.ID)
		case seen[r.ID]:
			t.Fatalf("search returned id %d twice: %v", r.ID, res)
		case r.Dist != math.Sqrt(sqDist(v, q)):
			t.Fatalf("id %d at distance %v, its vector is at %v", r.ID, r.Dist, math.Sqrt(sqDist(v, q)))
		case i > 0 && r.Dist < res[i-1].Dist:
			t.Fatalf("results not ascending: %v", res)
		}
		seen[r.ID] = true
	}
	exact := o.knn(q, k)
	for _, id := range exact {
		if seen[id] {
			found++
		}
	}
	return found, len(exact)
}

// TestOpsAgainstOracle runs seeded interleavings of insert, update, delete
// and search against the brute-force model. Sequences differ in how large
// the id space is next to the number of operations, so that some stay near
// empty (the last point goes and comes back, dimensionality changes) and
// some grow to hundreds of points with the free list in steady use. Every
// other search asks for the vector of the point last moved far, whose
// answer may be the beam of the settle that re-linked it; the operations
// since, updates under UpdateEps among them, must have retired that beam,
// or the model's distances tell.
func TestOpsAgainstOracle(t *testing.T) {
	for seed, ids := range []int{3, 12, 60, 400, 400} {
		t.Run(fmt.Sprintf("ids=%d/seed=%d", ids, seed), func(t *testing.T) {
			rng := xrand.New(uint64(100 + seed))
			ix, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			o := &oracle{vecs: map[int][]float64{}}
			dim := 8
			found, wanted := 0, 0
			relinked := 0 // the id last moved far
			for op := 0; op < 3000; op++ {
				if len(o.vecs) == 0 {
					dim = 4 + 4*rng.Intn(3) // an empty index takes any dimensionality
				}
				id := rng.Intn(ids) - ids/2 // negative ids are ids too
				switch _, held := o.vecs[id]; {
				case rng.Intn(5) < 2 && held, rng.Intn(40) == 0:
					if got := ix.Delete(id); got != held {
						t.Fatalf("Delete(%d) = %v, model held it: %v", id, got, held)
					}
					o.del(id)
				default:
					v := unitVec(dim, rng)
					if held && rng.Intn(2) == 0 {
						v = drifted(o.vecs[id], 0.003, rng) // under UpdateEps: copy only
					} else if held {
						relinked = id
					}
					if err := ix.Upsert(id, v); err != nil {
						t.Fatal(err)
					}
					o.set(id, v)
				}
				q := unitVec(dim, rng)
				if v, ok := o.vecs[relinked]; ok && op%2 == 0 {
					q = v
				}
				f, w := o.check(t, ix, id, q, 5)
				found, wanted = found+f, wanted+w
			}
			if recall := float64(found) / float64(wanted); recall < 0.97 {
				t.Fatalf("recall@5 over the sequence %.3f (%d of %d)", recall, found, wanted)
			}
		})
	}
}

// FuzzOps reads an operation sequence from the fuzzer's bytes, two per
// operation (what, which id), and checks it against the same model. The
// third seed moves a point far, settles, creeps another, then asks for the
// first one's vector: the answer must not come from the settle's beam.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 2, 0, 4, 2, 1, 2, 3, 2, 4, 0, 9})
	f.Add([]byte("\x00\x00\x02\x00\x00\x00\x01\x00\x00\x07\x00\x08\x02\x07\x00\x09\x03\x00"))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 1, 4, 5, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix := newIndex(params{M: 3, EfConstruction: 8, EfSearch: 8, UpdateEps: 0.02}, 1)
		o := &oracle{vecs: map[int][]float64{}}
		rng := xrand.New(1)
		for ; len(data) >= 2; data = data[2:] {
			id := int(data[1] % 48)
			q := unitVec(6, rng)
			switch data[0] % 6 {
			case 0, 1: // insert, or an update that re-links
				v := unitVec(6, rng)
				if err := ix.Upsert(id, v); err != nil {
					t.Fatal(err)
				}
				o.set(id, v)
			case 2:
				if _, held := o.vecs[id]; ix.Delete(id) != held {
					t.Fatalf("Delete(%d) disagrees with the model (held %v)", id, held)
				}
				o.del(id)
			case 3: // a search only
			case 4: // an update under UpdateEps, which only copies the vector
				if v, held := o.vecs[id]; held {
					v = drifted(v, 0.003, rng)
					if err := ix.Upsert(id, v); err != nil {
						t.Fatal(err)
					}
					o.set(id, v)
				}
			case 5: // a search for a stored point's own vector
				if v, held := o.vecs[id]; held {
					q = v
				}
			}
			o.check(t, ix, id, q, 4)
		}
	})
}

// recallAt8 is the mean share of the exact 8 nearest neighbours among
// vecs[ids] that a search at beam width ef returns, over queries drawn
// beside stored points.
func recallAt8(ix *Index, vecs [][]float64, ids []int, ef int, rng *xrand.Rand) float64 {
	const k, queries = 8, 400
	live := make([][]float64, len(ids))
	for i, id := range ids {
		live[i] = vecs[id]
	}
	found := 0
	for i := 0; i < queries; i++ {
		q := drifted(live[rng.Intn(len(live))], 0.05, rng)
		got := map[int]bool{}
		for _, r := range ix.SearchKNNEf(nil, q, k, ef) {
			got[r.ID] = true
		}
		for _, j := range bruteKNN(live, q, k) {
			if got[ids[j]] {
				found++
			}
		}
	}
	return float64(found) / (k * queries)
}

// raceBuild reports whether the test binary was built with -race, which has
// nothing to find in a single-goroutine test and makes it 15x slower.
// (Build settings, not a build tag: this file is compiled either way.)
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info != nil {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestRecallUnderChurn holds 4 096 points and turns them over ten times, a
// random point out and a new one in, which is what the cache tier's eviction
// does to its index: once in the wire_nget shape, once in the harder one of
// uniform unit-norm dim-32 points. The graph that deletes and slot reuse
// leave must answer at the default beam as well, within two points of
// recall, as one built from the surviving points alone; a beam of 16 is
// logged beside it, where a graph's debts show first.
func TestRecallUnderChurn(t *testing.T) {
	const live = 4096
	if raceBuild() {
		t.Skip("one goroutine, and minutes of it under -race")
	}
	turnover := 10
	if testing.Short() {
		turnover = 1
	}
	shapes := []struct {
		name string
		vecs func(n int) [][]float64
	}{
		{"clustered-16", func(n int) [][]float64 { return clusteredVecs(n, 16) }},
		{"unit-32", func(n int) [][]float64 { return unitVecs(n, 32, 13) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			vecs := shape.vecs(live * (turnover + 1))
			ix, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int, live)
			for i := range ids {
				ids[i] = i
				if err := ix.Upsert(i, vecs[i]); err != nil {
					t.Fatal(err)
				}
			}
			rng := xrand.New(11)
			for next := live; next < len(vecs); next++ {
				at := rng.Intn(live)
				if !ix.Delete(ids[at]) {
					t.Fatalf("id %d was not there to delete", ids[at])
				}
				if err := ix.Upsert(next, vecs[next]); err != nil {
					t.Fatal(err)
				}
				ids[at] = next
			}
			checkGraph(t, ix)
			if ix.Len() != live || ix.Free() != 0 {
				t.Fatalf("after the churn: %d points, %d free slots, want %d and 0", ix.Len(), ix.Free(), live)
			}
			fresh, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(ids)
			for _, id := range ids {
				if err := fresh.Upsert(id, vecs[id]); err != nil {
					t.Fatal(err)
				}
			}
			for _, ef := range []int{16, 64} {
				churned := recallAt8(ix, vecs, ids, ef, xrand.New(12))
				rebuilt := recallAt8(fresh, vecs, ids, ef, xrand.New(12))
				t.Logf("recall@8 at ef %d: churned %.4f (mean layer-0 degree %.1f), rebuilt %.4f (%.1f)",
					ef, churned, meanDegree0(ix), rebuilt, meanDegree0(fresh))
				if ef == 64 && churned < rebuilt-0.02 {
					t.Fatalf("recall@8 after %dx turnover %.4f, rebuilt from the survivors %.4f", turnover, churned, rebuilt)
				}
			}
		})
	}
}

// TestDeleteEdges walks the places where a delete has more to do than
// unlink: the entry point, a top layer that empties, the last point, and an
// id that comes back.
func TestDeleteEdges(t *testing.T) {
	vecs := randomVecs(300, 8, 21)
	build := func(t *testing.T) (*Index, *oracle) {
		ix, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		o := &oracle{vecs: map[int][]float64{}}
		for i, v := range vecs {
			if err := ix.Upsert(i, v); err != nil {
				t.Fatal(err)
			}
			o.set(i, v)
		}
		return ix, o
	}
	del := func(t *testing.T, ix *Index, o *oracle, id int) {
		t.Helper()
		if !ix.Delete(id) {
			t.Fatalf("Delete(%d) found nothing", id)
		}
		o.del(id)
		o.check(t, ix, id, vecs[id], 5)
	}

	t.Run("entry point, again and again", func(t *testing.T) {
		ix, o := build(t)
		if ix.maxLv == 0 {
			t.Fatal("300 points drew no upper layer; pick another seed")
		}
		// Deleting the entry point each time takes the top layer down to
		// nothing, one layer after another, and ends with the last point.
		for ix.Len() > 0 {
			top, lv := ix.nodes[ix.entry].id, ix.maxLv
			del(t, ix, o, top)
			if ix.Len() > 0 && ix.maxLv > lv {
				t.Fatalf("maxLv rose from %d to %d on a delete", lv, ix.maxLv)
			}
		}
	})

	t.Run("slot of a former entry point is reused above maxLv", func(t *testing.T) {
		ix, o := build(t)
		var freed []uint32
		for lv := ix.maxLv; ix.maxLv == lv; {
			freed = append(freed, uint32(ix.entry))
			del(t, ix, o, ix.nodes[ix.entry].id)
		}
		lower := ix.maxLv
		// The next new points take those slots, last freed first, and with
		// them levels above the graph's: each becomes the entry point.
		for i := len(freed) - 1; i >= 0; i-- {
			id := 1000 + i
			if err := ix.Upsert(id, vecs[i]); err != nil {
				t.Fatal(err)
			}
			o.set(id, vecs[i])
			o.check(t, ix, id, vecs[i], 5)
			if ix.byID[id] != freed[i] {
				t.Fatalf("id %d went to slot %d, want freed slot %d", id, ix.byID[id], freed[i])
			}
		}
		if ix.maxLv <= lower || ix.entry != int(freed[len(freed)-1]) {
			t.Fatalf("entry %d at level %d; want slot %d above level %d", ix.entry, ix.maxLv, freed[len(freed)-1], lower)
		}
	})

	t.Run("last point, then another dimensionality", func(t *testing.T) {
		ix, o := build(t)
		for id := range vecs {
			del(t, ix, o, id)
		}
		if indexDim(ix) != 0 || ix.SearchKNN(vecs[0], 3) != nil {
			t.Fatalf("emptied index: dim %d, search %v", indexDim(ix), ix.SearchKNN(vecs[0], 3))
		}
		if ix.Delete(0) {
			t.Fatal("Delete on an empty index found something")
		}
		wide := randomVecs(40, 12, 22)
		for i, v := range wide {
			if err := ix.Upsert(i, v); err != nil {
				t.Fatal(err)
			}
			o.set(i, v)
			o.check(t, ix, i, v, 5)
		}
		if err := ix.Upsert(99, vecs[0]); err == nil {
			t.Fatal("dim-8 vector accepted by an index that now holds dim 12")
		}
		if got := ix.SearchKNN(vecs[0], 3); got != nil {
			t.Fatalf("dim-8 query on a dim-12 index returned %v", got)
		}
	})

	t.Run("deleted id comes back", func(t *testing.T) {
		ix, o := build(t)
		del(t, ix, o, 7)
		del(t, ix, o, 8)
		// 7 returns elsewhere in the space and takes 8's slot (last freed).
		if err := ix.Upsert(7, vecs[200]); err != nil {
			t.Fatal(err)
		}
		o.set(7, vecs[200])
		o.check(t, ix, 7, vecs[7], 5)
		if res := ix.SearchKNN(vecs[200], 2); len(res) != 2 || res[0].Dist != 0 || res[1].Dist != 0 ||
			res[0].ID+res[1].ID != 7+200 {
			t.Fatalf("ids 7 and 200 share a vector; nearest two are %v", res)
		}
		if res := ix.SearchKNN(vecs[7], 1); len(res) != 1 || res[0].ID == 7 {
			t.Fatalf("id 7 still answers at the place it was deleted from: %v", res)
		}
	})
}

// TestFailedUpsertChangesNothing: an Upsert the index refuses must not have
// taken a slot off the free list or touched a map on the way.
func TestFailedUpsertChangesNothing(t *testing.T) {
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vecs := randomVecs(50, 8, 23)
	for i, v := range vecs {
		if err := ix.Upsert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete(10)
	ix.Delete(20)
	before := hashLinks(ix)
	for _, id := range []int{10, 30, 77} { // freed, live, never seen
		if err := ix.Upsert(id, make([]float64, 9)); err == nil {
			t.Fatalf("Upsert(%d) took a dim-9 vector into a dim-8 index", id)
		}
		if err := ix.Upsert(id, nil); err == nil {
			t.Fatalf("Upsert(%d) took an empty vector", id)
		}
	}
	checkGraph(t, ix)
	if ix.Len() != 48 || ix.Free() != 2 || hashLinks(ix) != before {
		t.Fatalf("after refused upserts: %d points, %d free, graph changed: %v", ix.Len(), ix.Free(), hashLinks(ix) != before)
	}
}

// TestDeleteHistoryIsDeterministic feeds two indexes one history of
// inserts, deletes, re-inserts and updates and wants every query answered
// identically: nothing in Delete or in slot reuse may depend on map order
// or on anything else that differs between two runs.
func TestDeleteHistoryIsDeterministic(t *testing.T) {
	const n, dim = 1000, 32
	rng := xrand.New(5)
	vecs := make([][]float64, 2*n)
	for i := range vecs {
		vecs[i] = unitVec(dim, rng)
	}
	build := func() *Index {
		ix, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ix.Upsert(i, vecs[i])
		}
		for i := 0; i < n; i++ { // two in three go, leaving many free slots
			if i%3 != 0 {
				ix.Delete(i)
			}
		}
		for i := n; i < n+n/3; i++ { // half of them are taken again
			ix.Upsert(i, vecs[i])
		}
		for i := 0; i < n; i += 6 { // updates with free slots about
			ix.Upsert(i, vecs[n+i])
		}
		return ix
	}
	a, b := build(), build()
	checkGraph(t, a)
	if a.Free() == 0 || a.Len() != b.Len() || hashLinks(a) != hashLinks(b) {
		t.Fatalf("graphs differ or hold no free slot: %d/%d points, %d free", a.Len(), b.Len(), a.Free())
	}
	// Two graphs over the same points mostly agree; it takes a few thousand
	// queries to be sure of meeting one they answer differently.
	for i := 0; i < 6*n; i++ {
		q := unitVec(dim, rng)
		if i < len(vecs) {
			q = vecs[i]
		}
		if ra, rb := a.SearchKNN(q, 8), b.SearchKNN(q, 8); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d answered differently:\n%v\n%v", i, ra, rb)
		}
	}
}
