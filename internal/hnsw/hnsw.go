// Package hnsw is a from-scratch implementation of Hierarchical Navigable
// Small World graphs (Malkov & Yashunin, 2018), the approximate
// nearest-neighbour index the paper uses (via hnswlib) to evaluate sample
// embeddings.
//
// The index supports dynamic insertion and in-place vector updates — the two
// operations SpiderCache's per-batch IS loop performs — in-place deletion
// with slot reuse, for the cache tier whose eviction runs beside its index,
// and k-NN search with a tunable ef parameter. Distances are Euclidean (the
// paper's Eq. 1). The index is safe for concurrent use: an RWMutex gives
// Upsert and Delete exclusive access while any number of searches proceed in
// parallel under the shared lock, matching hnswlib's concurrent read /
// exclusive write model the paper relies on.
//
// An update is batch-shaped, as the paper's one ANN_index.update per
// mini-batch is. Upsert of an indexed point stores the vector and, once the
// point has moved far enough to want new links, puts it on a due list; it
// searches nothing. The next operation that reads or changes the graph
// settles the list first: every due point's search and neighbour selection
// runs against the graph as it stands, on all cores at once, and the
// selections are then installed one after another in due order. A search
// therefore never sees a point whose links are older than its vector by
// more than UpdateEps, and the graph after a settle depends on the calls
// made and their order, not on how many cores ran it. The settle's search
// for a point's new vector is not thrown away: until the next Upsert or
// Delete, a search at EfSearch for exactly that vector returns the head of
// the settle's layer-0 beam, the point first, and searches nothing. The
// trainer searches each point of a batch for its score right after the
// batch's updates, so one search per point per batch serves both.
//
// The implementation follows the paper's Algorithms 1-5: multi-layer
// proximity graphs with exponentially decaying layer population, greedy
// descent from the entry point, best-first beam search per layer
// (efConstruction / efSearch), and the diversity-preserving neighbour
// selection heuristic. As in hnswlib, a neighbour list holds what the
// heuristic kept and no more: a list below its cap takes a back-link by
// appending it, and only one that overflows is selected again.
//
// Storage is slot-major and flat. A point's slot is its insertion rank, or
// the slot a deleted point left behind (see Delete); its
// vector is row slot of one []float64 arena and its layer-0 neighbour list
// is row slot of one []uint32 arena (a count, then room for 2*M+1 slots),
// so a hop of the layer-0 search is two indexed loads and no pointer chase.
// Only the upper layers, which one point in M reaches, keep a slice per
// layer. Distances are computed for all unvisited neighbours of a node at
// once, four rows per kernel call (kernel.go), the beam of a layer search is
// one sorted array (searchLayer), and all working memory of a search or an
// upsert comes from a pooled scratch, and that of a settle from buffers the
// index keeps: updating a point allocates nothing, a settle only the
// goroutines it forks, and a search only its result. Every sum keeps its
// order and every search meets its candidates in one defined order, so
// results, link lists and through them training runs are a function of the
// input alone, on any number of cores. TestGoldenTrace pins them down.
package hnsw

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"spidercache/internal/xrand"
)

// Config seeds an index. Everything else about it is fixed: every index
// New builds has the graph shape of defaultParams.
type Config struct {
	Seed uint64
}

// DefaultConfig returns the Config every caller starts from, seed 1.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// params is an index's graph shape and search width.
type params struct {
	M              int // max neighbours per node on upper layers (layer 0 gets 2*M)
	EfConstruction int // beam width during insertion, at least M
	EfSearch       int // default beam width during search, at least 1
	// UpdateEps is the Euclidean path an existing point travels, over
	// however many Upserts, before its graph links are repaired; below it
	// an Upsert only replaces the stored vector. Embedding drift between
	// consecutive scoring passes is tiny once training stabilises, so this
	// avoids paying the full re-link cost every batch; 0 always re-links.
	// The repair itself waits for the next settling operation (see the
	// package doc), which makes the updates of one batch in parallel.
	UpdateEps float64
}

// defaultParams is the shape of every index New builds. It gives high
// recall on the embedding workloads in this repository (small
// dimensionality, 10^3..10^5 points), and its UpdateEps is calibrated for
// unit-normalised embeddings (distances in [0, 2]). The package's own tests
// build smaller graphs through newIndex, where structure bugs show.
var defaultParams = params{M: 12, EfConstruction: 120, EfSearch: 64, UpdateEps: 0.02}

// node is one slot: an indexed point, or what a deleted point left behind.
// Its vector lives in Index.vecs, not here, so that walking the graph
// touches no per-node heap object.
type node struct {
	id int // external ID; of a free slot, the ID it was deleted under
	// free marks a slot whose point was deleted and that no new point has
	// taken yet. It keeps its vector, its level and its links, so a search
	// that still reaches it passes through; it is never a result and never
	// becomes anyone's new neighbour.
	free bool
	// due marks a point on Index.due: its links wait for the next settle.
	due bool
	// moved is how far the point has travelled, step by step, since its
	// links were last selected: an upper bound on how far it is from where
	// they were selected for.
	moved float64
	// upper[l-1] holds neighbour slot indexes at layer l, 1 <= l <= level;
	// len(upper) is the node's level. Layer 0 lives in Index.links0.
	upper [][]uint32
}

// Index is an HNSW approximate nearest-neighbour index. It is safe for
// concurrent use: Upsert takes an exclusive lock, searches take a shared
// lock, so any number of SearchKNN calls proceed in parallel and serialise
// only against mutations and against the settle of pending updates. Search
// working memory comes from a scratch pool, not the index, so concurrent
// searches never contend on shared state.
type Index struct {
	mu  sync.RWMutex
	p   params
	ml  float64 // level normalisation factor 1/ln(M)
	rng *xrand.Rand
	dim int // vector dimensionality, 0 while empty
	// vecs is the vector arena, slot-major: slot s owns
	// vecs[s*dim : (s+1)*dim]. It only ever grows, under the exclusive lock.
	vecs []float64
	// links0 is the layer-0 adjacency, slot-major like vecs: slot s owns
	// stride0 words, a count followed by room for 2*M+1 neighbour slots (one
	// over the cap, the longest a list gets before linkBack prunes it).
	// Every search ends on layer 0 and most of its hops are there, so this
	// is the list that is worth reaching without passing through the node.
	links0  []uint32
	stride0 int
	nodes   []node
	free    []uint32       // slots Delete emptied, reused last-in first-out
	byID    map[int]uint32 // external ID -> slot, live points only
	entry   int            // slot of entry point (always live), -1 if empty
	maxLv   int
	// due lists, each once and in the order they became due, the live
	// points an Upsert moved UpdateEps or more since their links were
	// selected. settle empties it.
	due []uint32
	// unsettled is len(due) > 0, written under the exclusive lock and read
	// without any, so that a search of a settled index takes the shared
	// lock once and nothing else.
	unsettled atomic.Bool
	// picks holds relinkAll's selections, reused from one call to the
	// next: due[i]'s layer-l row is row pickAt[i]+l, pickRow words, a count
	// and then the selected slots.
	picks  []uint32
	pickAt []int
	// pickers are the working memory of relinkAll's selecting goroutines,
	// one each, kept here rather than pooled so that a settle takes the
	// same buffers every time, whichever cores its goroutines land on. Each
	// holds a visit mark of 8 bytes per slot, up to GOMAXPROCS of them.
	pickers []*scratch
	// beams holds the head of the layer-0 search relinkAll ran for each
	// point it re-linked: due[i]'s row is EfSearch entries from
	// beams[i*EfSearch], the point itself at distance 0 and then the
	// nearest others of its beam, beamLen[i] of them in all. beamAt maps
	// the hash of such a point's vector to its row, so that a search at
	// EfSearch for exactly that vector reads the row and searches nothing
	// (searchKNN). Every Upsert and Delete empties beamAt: a row answers
	// only until the next change, that is, within the batch it was
	// searched for. It holds 16 bytes per entry, up to EfSearch per point
	// of the largest settle so far.
	beams   []candidate
	beamLen []int
	beamAt  map[uint64]int
}

// scratch is the working memory of one search or upsert: every buffer the
// operation would otherwise allocate. It is pooled, so an operation on a
// warmed-up index allocates nothing but what it returns.
type scratch struct {
	// visited holds one epoch counter per slot, bumped per searchLayer call
	// so the array never needs clearing between calls.
	visited []uint32
	epoch   uint32

	cands   []candidate // searchLayer's beam, which is also its output
	sel     []candidate // neighbours selected for the point being linked
	back    []candidate // linkBack: the overflowing list, sorted
	backSel []candidate // linkBack: what survives the pruning
	nbrs    []uint32    // slots whose distances are about to be computed
	dists   []float64   // their distances, same order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch sized for the current slot count and for the
// longest list of slots whose distances are wanted at once: two full layer-0
// lists, a neighbour's and a deleted point's, merged by dropLink.
func (ix *Index) getScratch() *scratch {
	s := scratchPool.Get().(*scratch)
	ix.fit(s)
	return s
}

// fit grows s to what an operation on the index may need of it.
func (ix *Index) fit(s *scratch) {
	if len(s.visited) < len(ix.nodes)+1 {
		s.visited = make([]uint32, 2*len(ix.nodes)+16)
		s.epoch = 0
	}
	if most := 2 * ix.layerCap(0); cap(s.nbrs) < most {
		s.nbrs = make([]uint32, 0, most)
		s.dists = make([]float64, most)
	}
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// nextEpoch advances the scratch epoch, clearing the array on wrap-around.
func (s *scratch) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
	return s.epoch
}

// New creates an empty index of the shipped shape (defaultParams), seeded
// by cfg.Seed. Its error is always nil.
func New(cfg Config) (*Index, error) {
	return newIndex(defaultParams, cfg.Seed), nil
}

// newIndex creates an empty index of shape p.
func newIndex(p params, seed uint64) *Index {
	return &Index{
		p:       p,
		ml:      1 / math.Log(float64(p.M)),
		rng:     xrand.New(seed),
		stride0: 2*p.M + 2,
		byID:    make(map[int]uint32),
		entry:   -1,
		beamAt:  make(map[uint64]int),
	}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byID)
}

// Free returns the number of slots deleted points left behind that no new
// point has taken yet. Len() + Free() is the number of slots the index
// holds, which never exceeds the largest Len() it has had since it was last
// empty.
func (ix *Index) Free() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.free)
}

// Dim returns the dimensionality of the indexed vectors (0 when empty).
func (ix *Index) Dim() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.dim
}

// vec returns slot's row of the arena.
func (ix *Index) vec(slot uint32) []float64 {
	o := int(slot) * ix.dim
	return ix.vecs[o : o+ix.dim : o+ix.dim]
}

// Contains reports whether id has been indexed.
func (ix *Index) Contains(id int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.byID[id]
	return ok
}

// Vector returns a copy of the stored vector for id, or nil when unknown.
func (ix *Index) Vector(id int) []float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, ok := ix.byID[id]
	if !ok {
		return nil
	}
	return append([]float64(nil), ix.vec(slot)...)
}

// links returns slot's neighbours at layer l, nil above the node's level.
// The slice has room for one neighbour over the layer's cap: append to it,
// then hand it to setLinks.
func (ix *Index) links(slot uint32, l int) []uint32 {
	if l == 0 {
		row := ix.links0[int(slot)*ix.stride0:][:ix.stride0]
		return row[1 : 1+row[0] : ix.stride0]
	}
	if up := ix.nodes[slot].upper; l <= len(up) {
		return up[l-1]
	}
	return nil
}

// setLinks stores links, which must be ix.links(slot, l) re-sliced or
// appended to within its capacity, as slot's neighbours at layer l.
func (ix *Index) setLinks(slot uint32, l int, links []uint32) {
	if l == 0 {
		ix.links0[int(slot)*ix.stride0] = uint32(len(links))
		return
	}
	ix.nodes[slot].upper[l-1] = links
}

func (ix *Index) dist(slot uint32, q []float64) float64 {
	return sqDist(ix.vec(slot), q)
}

// distsTo returns the squared distances from q to the vectors of slots, in
// order, in a buffer that is valid until the next call on the same scratch.
// Rows go through the kernel four at a time; a short last group repeats its
// last row, which costs no more than the scalar loop would.
func (ix *Index) distsTo(sc *scratch, slots []uint32, q []float64) []float64 {
	out := sc.dists[:len(slots)]
	i := 0
	for ; i+4 <= len(slots); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = sqDist4(q,
			ix.vec(slots[i]), ix.vec(slots[i+1]), ix.vec(slots[i+2]), ix.vec(slots[i+3]))
	}
	if rest := slots[i:]; len(rest) > 0 {
		var g [4]uint32
		for k := range g {
			g[k] = rest[min(k, len(rest)-1)]
		}
		var d [4]float64
		d[0], d[1], d[2], d[3] = sqDist4(q, ix.vec(g[0]), ix.vec(g[1]), ix.vec(g[2]), ix.vec(g[3]))
		copy(out[i:], d[:])
	}
	return out
}

// Upsert inserts the vector under id, or replaces the stored vector when id
// is already indexed. The updates of a batch are the "ANN_index.update" of
// the paper's Algorithm 1: an update searches nothing, and a point that has
// moved UpdateEps since its links were selected is re-linked, at every layer
// it occupies, by the next operation that settles (see the package doc). An
// insert settles first and links the new point at once. Upsert takes the
// exclusive lock and may run concurrently with SearchKNN callers, which
// serialise against it. A call that returns an error has changed nothing.
func (ix *Index) Upsert(id int, vec []float64) error {
	if len(vec) == 0 {
		return fmt.Errorf("hnsw: empty vector for id %d", id)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if d := ix.dim; d != 0 && len(vec) != d {
		return fmt.Errorf("hnsw: vector dim %d != index dim %d", len(vec), d)
	}
	defer clear(ix.beamAt)
	if slot, ok := ix.byID[id]; ok {
		ix.updateVector(slot, vec)
		return nil
	}
	ix.settle()
	if n := len(ix.free); n > 0 {
		slot := ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.reuse(slot, id, vec)
		return nil
	}
	ix.insert(id, vec)
	return nil
}

func (ix *Index) insert(id int, vec []float64) {
	level := ix.randomLevel()
	slot := uint32(len(ix.nodes))
	ix.dim = len(vec)
	ix.vecs = append(ix.vecs, vec...)
	ix.links0 = append(ix.links0, make([]uint32, ix.stride0)...)
	upper := make([][]uint32, level)
	for i := range upper {
		// One over the cap, as in links0, so that no append reallocates.
		upper[i] = make([]uint32, 0, ix.p.M+1)
	}
	ix.nodes = append(ix.nodes, node{id: id, upper: upper})
	ix.byID[id] = slot

	if ix.entry < 0 {
		ix.entry = int(slot)
		ix.maxLv = level
		return
	}
	ix.link(slot)
}

// reuse puts a new point into a free slot: hnswlib's allow_replace_deleted.
// The slot keeps the level it was drawn when first filled, so the layer
// populations stay what randomLevel made them.
func (ix *Index) reuse(slot uint32, id int, vec []float64) {
	nd := &ix.nodes[slot]
	nd.id, nd.free = id, false
	ix.byID[id] = slot
	copy(ix.vec(slot), vec)
	ix.link(slot)
}

// link links a new point into a non-empty, settled graph the way a settle
// re-links a point an update moved, and makes it the entry point if no
// other point reaches its level.
func (ix *Index) link(slot uint32) {
	ix.due = append(ix.due, slot)
	ix.relinkAll()
	// A reused slot may lie above the entry point, which passed to a lower
	// point while the slot was free. Above maxLv there are only free
	// slots: link to none of them.
	if level := len(ix.nodes[slot].upper); level > ix.maxLv {
		for l := ix.maxLv + 1; l <= level; l++ {
			ix.setLinks(slot, l, ix.links(slot, l)[:0])
		}
		ix.maxLv = level
		ix.entry = int(slot)
	}
}

// updateVector replaces the stored vector and, once the point has moved
// UpdateEps since its links were last selected, puts it on the due list, so
// that the next settle repairs them by re-running neighbour selection at
// each of its layers, mirroring hnswlib's update_point repair. The steps of
// successive calls add up, so a point that creeps is re-linked every
// UpdateEps of path at the latest.
func (ix *Index) updateVector(slot uint32, vec []float64) {
	q, nd := ix.vec(slot), &ix.nodes[slot]
	nd.moved += math.Sqrt(sqDist(q, vec))
	copy(q, vec)
	// A NaN step compares false and re-links, as does any step at eps 0.
	if nd.due || nd.moved < ix.p.UpdateEps || len(ix.nodes) == 1 {
		return
	}
	nd.due = true
	ix.due = append(ix.due, slot)
	ix.unsettled.Store(true)
}

// settle re-links every point on the due list. It runs under the exclusive
// lock.
func (ix *Index) settle() {
	if len(ix.due) == 0 {
		return
	}
	ix.relinkAll()
	ix.unsettled.Store(false)
}

// readSettled runs read under the shared lock on a settled index, settling
// it first if it is not. An Upsert that slips in between the settle and the
// shared lock sends it round again, so read sees the graph after every call
// that came before it.
func (ix *Index) readSettled(read func()) {
	for {
		if ix.unsettled.Load() {
			ix.mu.Lock()
			ix.settle()
			ix.mu.Unlock()
		}
		ix.mu.RLock()
		if !ix.unsettled.Load() {
			break
		}
		ix.mu.RUnlock()
	}
	defer ix.mu.RUnlock()
	read()
}

// pickRow is the width of one row of Index.picks: a count and room for the
// longest selection, layer 0's.
func (ix *Index) pickRow() int { return 1 + ix.layerCap(0) }

// relinkAll replaces the links of every point on the due list, and empties
// it, in two steps. First each point's search and neighbour selection runs
// against the graph as it stands, which none of them changes, spread over
// all cores. Then the selections are installed, with their back-links, one
// point after another in due order. A point's selection depends on the
// graph and its own vector alone, so the result is the same whichever core
// selected what. For one point it is what searching and linking layer by
// layer gives: a layer's search reads that layer's links only. Each
// point's layer-0 beam is kept for the searches of its vector that follow
// (Index.beams).
func (ix *Index) relinkAll() {
	due := ix.due
	ix.pickAt = ix.pickAt[:0]
	rows := 0
	for _, slot := range due {
		ix.pickAt = append(ix.pickAt, rows)
		rows += min(len(ix.nodes[slot].upper), ix.maxLv) + 1
	}
	w := ix.pickRow()
	if cap(ix.picks) < rows*w {
		ix.picks = make([]uint32, rows*w)
	}
	picks := ix.picks[:rows*w]
	if n := len(due) * ix.p.EfSearch; cap(ix.beams) < n {
		ix.beams = make([]candidate, n)
	}
	ix.beamLen = slices.Grow(ix.beamLen[:0], len(due))[:len(due)]
	workers := min(runtime.GOMAXPROCS(0), len(due))
	for len(ix.pickers) < workers {
		ix.pickers = append(ix.pickers, new(scratch))
	}
	for _, sc := range ix.pickers[:workers] {
		ix.fit(sc)
	}
	if workers > 1 {
		// Goroutines of their own, not the training pool's: the pool lends
		// a block only to a worker that is parked, and the caller of a
		// search that settles often holds the pool's other workers blocked
		// on this very lock.
		var f fork
		f.wg.Add(workers - 1)
		for _, sc := range ix.pickers[1:workers] {
			go func() {
				defer f.wg.Done()
				ix.pickFrom(sc, &f.next, picks)
			}()
		}
		ix.pickFrom(ix.pickers[0], &f.next, picks)
		f.wg.Wait()
	} else {
		var next atomic.Int64
		ix.pickFrom(ix.pickers[0], &next, picks)
	}
	sc := ix.pickers[0]
	for i, slot := range due {
		ix.install(sc, slot, picks[ix.pickAt[i]*w:])
	}
	clear(ix.beamAt)
	// A beam narrower than a search's holds less than the search would
	// find.
	if ix.p.EfConstruction >= ix.p.EfSearch {
		for i, slot := range due {
			// Of two points with one vector, the first re-linked answers.
			h := vecHash(ix.vec(slot))
			if _, dup := ix.beamAt[h]; !dup {
				ix.beamAt[h] = i
			}
		}
	}
	ix.due = due[:0]
}

// vecHash hashes the bits of v, FNV-1a a word at a time.
func vecHash(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

// fork is what relinkAll's goroutines share.
type fork struct {
	wg   sync.WaitGroup
	next atomic.Int64 // the next due point to select for
}

// pickFrom selects for due points, taking the next one from next until
// none is left.
func (ix *Index) pickFrom(sc *scratch, next *atomic.Int64, picks []uint32) {
	w, ef := ix.pickRow(), ix.p.EfSearch
	for {
		i := int(next.Add(1) - 1)
		if i >= len(ix.due) {
			return
		}
		ix.beamLen[i] = ix.pick(sc, ix.due[i], picks[ix.pickAt[i]*w:], ix.beams[i*ef:(i+1)*ef])
	}
}

// pick searches for slot's vector from the entry point and writes, into
// rows, the neighbours it selects from what the search found at every layer
// the point shares with the graph, and into beam, the head of its layer-0
// search, whose length it returns. It only reads the index.
func (ix *Index) pick(sc *scratch, slot uint32, rows []uint32, beam []candidate) (n int) {
	q := ix.vec(slot)
	level := len(ix.nodes[slot].upper)
	ep := uint32(ix.entry)
	epDist := ix.dist(ep, q)
	for l := ix.maxLv; l > level; l-- {
		ep, epDist = ix.greedyStep(sc, ep, epDist, q, l)
	}
	anyFree := len(ix.free) > 0
	w := ix.pickRow()
	for l := min(level, ix.maxLv); l >= 0; l-- {
		cands := ix.searchLayer(sc, ep, epDist, q, ix.p.EfConstruction, l)
		if l == 0 {
			n = keepBeam(slot, cands, beam)
		}
		// Drop self-references and free slots before selecting.
		filtered := cands[:0]
		for _, c := range cands {
			if c.id != slot && !(anyFree && ix.nodes[c.id].free) {
				filtered = append(filtered, c)
			}
		}
		row := rows[l*w : (l+1)*w]
		selected := ix.selectHeuristic(filtered, ix.layerCap(l), &sc.sel)
		row[0] = uint32(len(selected))
		for i, c := range selected {
			row[1+i] = c.id
		}
		if len(filtered) > 0 {
			ep, epDist = filtered[0].id, filtered[0].dist
		}
	}
	return n
}

// keepBeam fills beam with slot at distance 0 and then the first entries
// of cands, its layer-0 search, other than slot, and returns how many it
// wrote. The search may miss slot itself: its links lead to where it was
// before the update that made it due.
func keepBeam(slot uint32, cands, beam []candidate) int {
	beam[0] = candidate{id: slot}
	n := 1
	for _, c := range cands {
		if n == len(beam) {
			break
		}
		if c.id != slot {
			beam[n] = c
			n++
		}
	}
	return n
}

// install makes the selections pick wrote into rows slot's neighbours, top
// layer first, and links each of them back.
func (ix *Index) install(sc *scratch, slot uint32, rows []uint32) {
	nd := &ix.nodes[slot]
	nd.moved, nd.due = 0, false
	w := ix.pickRow()
	for l := min(len(nd.upper), ix.maxLv); l >= 0; l-- {
		row := rows[l*w:]
		links := ix.links(slot, l)[:0]
		for _, nb := range row[1 : 1+row[0]] {
			links = append(links, nb)
			ix.linkBack(sc, nb, slot, l)
		}
		ix.setLinks(slot, l, links)
	}
}

// Delete removes id from the index and reports whether it was there. It
// takes the exclusive lock, like Upsert, and allocates nothing.
//
// Every neighbour of the point that links back to it loses that link and
// re-selects its list from what is left of it and the deleted point's own
// neighbours, with the heuristic that built the list: the paths that led
// through the point now lead around it. The entry point and the top layer
// pass to the highest point left. The slot goes on the free list, and the
// next Upsert of a new id takes it instead of growing the arenas, so the
// index holds no more slots than it has held points at once.
//
// Links are not symmetric, and a point that linked to the deleted one
// without being linked from it is not found here. Until the slot is reused
// its vector, level and links are therefore left as they are: a search that
// reaches it continues through it as before, SearchKNN leaves it out of
// what it returns, and Upsert picks no free slot as a neighbour. Once
// reused, such a leftover link leads to the new point: a long edge, like
// those an update that moves a point far leaves behind. Deleting the last
// point empties the index, after which it takes vectors of any one
// dimensionality again.
func (ix *Index) Delete(id int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.settle()
	slot, ok := ix.byID[id]
	if !ok {
		return false
	}
	delete(ix.byID, id)
	clear(ix.beamAt)
	if len(ix.byID) == 0 {
		ix.reset()
		return true
	}
	ix.nodes[slot].free = true
	ix.free = append(ix.free, slot)
	sc := ix.getScratch()
	defer putScratch(sc)
	for l := len(ix.nodes[slot].upper); l >= 0; l-- {
		heirs := ix.links(slot, l)
		for _, nb := range heirs {
			ix.dropLink(sc, nb, slot, l, heirs)
		}
	}
	if ix.entry == int(slot) {
		ix.electEntry()
	}
	return true
}

// reset returns the index to the state New left it in, keeping the arenas'
// capacity and the level generator's position.
func (ix *Index) reset() {
	clear(ix.nodes) // lets go of the upper-layer lists
	ix.nodes, ix.free = ix.nodes[:0], ix.free[:0]
	ix.vecs, ix.links0 = ix.vecs[:0], ix.links0[:0]
	ix.dim, ix.entry, ix.maxLv = 0, -1, 0
}

// electEntry makes the highest point the entry point, the earliest slot
// among equals. It looks at every slot: only a deleted entry point brings
// it here, one Delete in Len() on average.
func (ix *Index) electEntry() {
	best := -1
	for i := range ix.nodes {
		if nd := &ix.nodes[i]; !nd.free && (best < 0 || len(nd.upper) > len(ix.nodes[best].upper)) {
			best = i
		}
	}
	ix.entry, ix.maxLv = best, len(ix.nodes[best].upper)
}

// dropLink removes gone, a slot just freed, from nb's layer-l neighbours,
// if it is among them, and refills the list from the rest of it and from
// heirs, the neighbours gone had at that layer.
func (ix *Index) dropLink(sc *scratch, nb, gone uint32, l int, heirs []uint32) {
	if ix.nodes[nb].free {
		return
	}
	links := ix.links(nb, l)
	if !slices.Contains(links, gone) {
		return
	}
	// Other free slots nb still links to go out on the same occasion.
	pool := sc.nbrs[:0]
	for _, s := range links {
		if !ix.nodes[s].free {
			pool = append(pool, s)
		}
	}
	for _, s := range heirs {
		if s != nb && !ix.nodes[s].free && !slices.Contains(pool, s) {
			pool = append(pool, s)
		}
	}
	ix.reselect(sc, nb, l, pool)
}

// reselect makes slot's layer-l neighbours the heuristic's selection from
// pool, which may be the list itself with additions.
func (ix *Index) reselect(sc *scratch, slot uint32, l int, pool []uint32) {
	dists := ix.distsTo(sc, pool, ix.vec(slot))
	cands := sc.back[:0]
	for i, nb := range pool {
		cands = append(cands, candidate{id: nb, dist: dists[i]})
	}
	sc.back = cands
	sortCandidates(cands)
	links := ix.links(slot, l)[:0]
	for _, c := range ix.selectHeuristic(cands, ix.layerCap(l), &sc.backSel) {
		links = append(links, c.id)
	}
	ix.setLinks(slot, l, links)
}

// layerCap returns the max neighbours per node at layer l.
func (ix *Index) layerCap(l int) int {
	if l == 0 {
		return 2 * ix.p.M
	}
	return ix.p.M
}

// linkBack adds src as a neighbour of dst at layer l, pruning dst's list
// with the selection heuristic when it overflows.
func (ix *Index) linkBack(sc *scratch, dst, src uint32, l int) {
	links := ix.links(dst, l)
	for _, existing := range links {
		if existing == src {
			return
		}
	}
	links = append(links, src)
	if len(links) > ix.layerCap(l) {
		ix.reselect(sc, dst, l, links)
		return
	}
	ix.setLinks(dst, l, links)
}

// greedyStep walks layer l greedily towards q, returning the local minimum.
func (ix *Index) greedyStep(sc *scratch, ep uint32, epDist float64, q []float64, l int) (uint32, float64) {
	for {
		improved := false
		nbrs := ix.links(ep, l)
		for i, d := range ix.distsTo(sc, nbrs, q) {
			if d < epDist {
				ep, epDist = nbrs[i], d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// candidate pairs a slot with its distance to the current query.
type candidate struct {
	id       uint32
	expanded bool // searchLayer: the slot's neighbours have been looked at
	dist     float64
}

// searchLayer runs best-first beam search on layer l starting from ep and
// returns up to ef candidates sorted by ascending distance, equal distances
// in the order the search met them, in a buffer that is valid until the next
// searchLayer on the same scratch. All working memory lives in the caller's
// scratch, so concurrent searches are independent.
//
// The beam is one array: the ef nearest candidates met so far, ascending,
// each marked once expanded, with cur at or before the nearest one not yet
// marked. A step expands that one: it gathers its neighbours not yet
// visited, computes their distances together (distsTo) and inserts, in list
// order, those below bound, the distance of the last entry of a full beam.
// The search ends when every entry is marked. This is the textbook's loop
// over a min-heap of candidates and a max-heap of results, which stops at
// the first candidate farther than the ef-th result: an entry pushed off
// the end of the beam is such a candidate, so forgetting it skips nothing
// (beam_test.go holds the two to each other). A distance that is not below
// +Inf never enters; the entry point's counts as +Inf.
func (ix *Index) searchLayer(sc *scratch, ep uint32, epDist float64, q []float64, ef int, l int) []candidate {
	epoch := sc.nextEpoch()
	visited := sc.visited
	visited[ep] = epoch

	bound := math.Inf(1)
	if !(epDist < bound) {
		epDist = bound
	}
	beam := append(sc.cands[:0], candidate{id: ep, dist: epDist})
	if ef == 1 { // full from the start
		bound = epDist
	}
	for cur := 0; cur < len(beam); {
		if beam[cur].expanded {
			cur++
			continue
		}
		beam[cur].expanded = true
		nbrs := sc.nbrs[:0]
		for _, nb := range ix.links(beam[cur].id, l) {
			if visited[nb] != epoch {
				visited[nb] = epoch
				nbrs = append(nbrs, nb)
			}
		}
		for i, d := range ix.distsTo(sc, nbrs, q) {
			if !(d < bound) {
				continue
			}
			// The first entry farther than d: equal ones stay ahead of it.
			at, hi := 0, len(beam)
			for at < hi {
				if mid := int(uint(at+hi) >> 1); d < beam[mid].dist {
					hi = mid
				} else {
					at = mid + 1
				}
			}
			if len(beam) < ef {
				beam = append(beam, candidate{})
			}
			copy(beam[at+1:], beam[at:])
			beam[at] = candidate{id: nbrs[i], dist: d}
			if len(beam) == ef {
				bound = beam[ef-1].dist
			}
			cur = min(cur, at)
		}
	}
	sc.cands = beam
	return beam
}

// selectHeuristic implements the diversity-preserving neighbour selection of
// the HNSW paper (Algorithm 4): a candidate is kept only if it is closer to
// the query than to every already-selected neighbour. cands must be sorted
// ascending by distance. What the rule turns away stays out, so the result
// may hold fewer than m; it is cands itself or lives in *buf.
func (ix *Index) selectHeuristic(cands []candidate, m int, buf *[]candidate) []candidate {
	if len(cands) <= m {
		return cands
	}
	selected := (*buf)[:0]
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		// Whether some selected neighbour is closer to c than q is does not
		// depend on the order they are asked in: ask four at a time, a short
		// last group repeating its last row.
		keep := true
		cv := ix.vec(c.id)
		for i := 0; i < len(selected) && keep; i += 4 {
			var g [4]uint32
			for k := range g {
				g[k] = selected[min(i+k, len(selected)-1)].id
			}
			keep = !anyBelow4(cv, ix.vec(g[0]), ix.vec(g[1]), ix.vec(g[2]), ix.vec(g[3]), c.dist)
		}
		if keep {
			selected = append(selected, c)
		}
	}
	*buf = selected
	return selected
}

// sortCandidates orders a pool of at most two neighbour lists by ascending
// distance, equal distances staying in list order.
func sortCandidates(cands []candidate) {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && cands[j].dist > c.dist {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
}

// Result is one search hit.
type Result struct {
	ID   int
	Dist float64 // Euclidean distance (Eq. 1 of the paper)
}

// SearchKNN returns up to k approximate nearest neighbours of q using the
// configured EfSearch beam width.
func (ix *Index) SearchKNN(q []float64, k int) []Result {
	return ix.SearchKNNEf(q, k, ix.p.EfSearch)
}

// SearchKNNEf is SearchKNN with an explicit beam width ef (>= k recommended).
// Safe for concurrent use; parallel searches share only the read lock. A
// query of another dimensionality than the index's finds nothing: Delete can
// empty the index and another dimensionality can move in between a caller's
// check and its search.
func (ix *Index) SearchKNNEf(q []float64, k, ef int) (out []Result) {
	ix.readSettled(func() { out = ix.searchKNN(q, k, ef) })
	return out
}

func (ix *Index) searchKNN(q []float64, k, ef int) []Result {
	if ix.entry < 0 || k <= 0 || len(q) != ix.dim {
		return nil
	}
	if ef < k {
		ef = k
	}
	if ef == ix.p.EfSearch && len(ix.beamAt) > 0 {
		if i, ok := ix.beamAt[vecHash(q)]; ok {
			beam := ix.beams[i*ef:][:ix.beamLen[i]]
			if slices.Equal(ix.vec(beam[0].id), q) {
				return ix.results(beam, k)
			}
		}
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	ep := uint32(ix.entry)
	epDist := ix.dist(ep, q)
	for l := ix.maxLv; l > 0; l-- {
		ep, epDist = ix.greedyStep(sc, ep, epDist, q, l)
	}
	return ix.results(ix.searchLayer(sc, ep, epDist, q, ef, 0), k)
}

// results returns the first k live points of cands as search results.
func (ix *Index) results(cands []candidate, k int) []Result {
	// Free slots the search passed through are left out here, once per
	// result, and not where it hops.
	out := make([]Result, 0, min(k, len(cands)))
	for _, c := range cands {
		if len(out) == k {
			break
		}
		if nd := &ix.nodes[c.id]; !nd.free {
			out = append(out, Result{ID: nd.id, Dist: math.Sqrt(c.dist)})
		}
	}
	return out
}

// randomLevel draws the node level from the exponential distribution
// floor(-ln(U) * mL) used by the HNSW paper.
func (ix *Index) randomLevel() int {
	lv := int(ix.rng.ExpFloat64() * ix.ml)
	const maxLevel = 30
	if lv > maxLevel {
		lv = maxLevel
	}
	return lv
}

// Links returns the number of links the index holds, all layers and free
// slots included. Lists are as long as the selection heuristic left them,
// so Links over Len is the graph's mean degree, the first number to read
// when recall or search time moves.
func (ix *Index) Links() (n int) {
	ix.readSettled(func() { n = ix.countLinks() })
	return n
}

func (ix *Index) countLinks() int {
	total := 0
	for i := range ix.nodes {
		total += len(ix.links(uint32(i), 0))
		for _, l := range ix.nodes[i].upper {
			total += len(l)
		}
	}
	return total
}

// MemoryBytes estimates the resident size of the index: 8 bytes per vector
// component in the arena, 4 per link, and 48 of per-node bookkeeping (id,
// level, list headers). It counts links held, not list capacity, so the
// figure depends on the graph alone and not on how it is laid out. Used by
// the Table 2 storage-efficiency experiment.
func (ix *Index) MemoryBytes() (n int64) {
	ix.readSettled(func() { n = int64(len(ix.nodes))*int64(ix.dim*8+48) + int64(ix.countLinks())*4 })
	return n
}
