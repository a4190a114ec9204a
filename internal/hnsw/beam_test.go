package hnsw

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"spidercache/internal/xrand"
)

// The oracle: the layer search as the HNSW paper writes it and as this
// package ran it until searchLayer became one sorted array, a min-heap of
// candidates still to expand beside a max-heap of the ef best so far. Two
// things the old heaps left to their array layout are spelt out here, and
// searchLayer is held to them: candidates at equal distances rank in the
// order the search met them, and a distance that is not below +Inf is no
// candidate (the entry point's counts as +Inf). Without equal or non-finite
// distances neither rule ever decides anything, and this is the old loop.

type met struct {
	candidate
	seq int // rank of arrival
}

// nearer is the order of the sorted output: by distance, then by arrival.
func nearer(a, b met) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.seq < b.seq)
}

// oracleHeap is a binary heap with the element no other is above(it) on top.
type oracleHeap struct {
	items []met
	above func(a, b met) bool
}

func (h *oracleHeap) push(c met) {
	h.items = append(h.items, c)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.above(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *oracleHeap) pop() met {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	for i := 0; ; {
		first := i
		for _, child := range []int{2*i + 1, 2*i + 2} {
			if child < n && h.above(h.items[child], h.items[first]) {
				first = child
			}
		}
		if first == i {
			return top
		}
		h.items[i], h.items[first] = h.items[first], h.items[i]
		i = first
	}
}

// oracleSearchLayer is searchLayer's specification. It computes each
// distance with the scalar kernel, where it is used.
func oracleSearchLayer(ix *Index, ep uint32, epDist float64, q []float64, ef, l int) []candidate {
	inf := math.Inf(1)
	if !(epDist < inf) {
		epDist = inf
	}
	visited := map[uint32]bool{ep: true}
	frontier := &oracleHeap{above: nearer}
	results := &oracleHeap{above: func(a, b met) bool { return nearer(b, a) }}
	first := met{candidate: candidate{id: ep, dist: epDist}}
	frontier.push(first)
	results.push(first)
	for seq := 1; len(frontier.items) > 0; {
		cur := frontier.pop()
		if len(results.items) >= ef && nearer(results.items[0], cur) {
			break
		}
		for _, nb := range ix.links(cur.id, l) {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := sqDist(ix.vec(nb), q)
			if d < inf && (len(results.items) < ef || d < results.items[0].dist) {
				c := met{candidate: candidate{id: nb, dist: d}, seq: seq}
				seq++
				frontier.push(c)
				results.push(c)
				if len(results.items) > ef {
					results.pop()
				}
			}
		}
	}
	out := make([]candidate, len(results.items))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = results.pop().candidate
	}
	return out
}

// checkBeam compares searchLayer with the oracle for one query, from the
// entry point at the top layer and from a point of the layer's own below it,
// at every layer and a range of beam widths.
func checkBeam(t testing.TB, ix *Index, q []float64, efs []int) {
	t.Helper()
	sc := ix.getScratch()
	defer putScratch(sc)
	for l := ix.maxLv; l >= 0; l-- {
		eps := []uint32{uint32(ix.entry)}
		for s := range ix.nodes { // the first other slot that reaches layer l, free or not
			if s != ix.entry && len(ix.nodes[s].upper) >= l {
				eps = append(eps, uint32(s))
				break
			}
		}
		for _, ep := range eps {
			for _, ef := range efs {
				want := oracleSearchLayer(ix, ep, ix.dist(ep, q), q, ef, l)
				got := ix.searchLayer(sc, ep, ix.dist(ep, q), q, ef, l)
				if len(got) != len(want) {
					t.Fatalf("layer %d from slot %d at ef %d: beam holds %d, oracle %d", l, ep, ef, len(got), len(want))
				}
				for i, g := range got {
					if w := want[i]; g.id != w.id || math.Float64bits(g.dist) != math.Float64bits(w.dist) {
						t.Fatalf("layer %d from slot %d at ef %d, entry %d of %d: beam has slot %d at %v, oracle slot %d at %v",
							l, ep, ef, i, len(got), g.id, g.dist, w.id, w.dist)
					}
				}
			}
		}
	}
}

// rewire replaces every link list by a random one of random length among
// the slots that reach its layer: graphs no insertion would build, with
// one-way links, islands and empty lists.
func rewire(ix *Index, rng *xrand.Rand) {
	for l := 0; l <= ix.maxLv; l++ {
		var reach []uint32
		for s := range ix.nodes {
			if len(ix.nodes[s].upper) >= l {
				reach = append(reach, uint32(s))
			}
		}
		for _, s := range reach {
			links := ix.links(s, l)[:0]
			for want := rng.Intn(ix.layerCap(l) + 1); len(links) < want && len(links) < len(reach)-1; {
				if nb := reach[rng.Intn(len(reach))]; nb != s && !slices.Contains(links, nb) {
					links = append(links, nb)
				}
			}
			ix.setLinks(s, l, links)
		}
	}
}

// TestBeamMatchesTwoHeaps builds graphs with everything that could tell a
// sorted array from two heaps: vectors stored many times over and
// coordinates on a coarse grid (equal distances), free slots, NaN and
// overflowing components, and beams from one entry to wider than the graph.
func TestBeamMatchesTwoHeaps(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := xrand.New(seed)
			n, dim := 40+rng.Intn(400), 2+rng.Intn(9)
			// An M this small gives several layers at a few hundred points.
			ix := newIndex(params{M: 2 + rng.Intn(5), EfConstruction: 20, EfSearch: 10}, seed)
			vecs := make([][]float64, n)
			for i := range vecs {
				switch v := make([]float64, dim); {
				case i > 0 && rng.Intn(4) == 0: // a copy of an earlier point
					vecs[i] = vecs[rng.Intn(i)]
				case rng.Intn(3) == 0: // grid points: equal distances between different vectors
					for j := range v {
						v[j] = float64(rng.Intn(3))
					}
					vecs[i] = v
				default:
					for j := range v {
						v[j] = rng.NormFloat64()
					}
					vecs[i] = v
				}
				if seed%3 == 0 && rng.Intn(25) == 0 {
					bad := append([]float64(nil), vecs[i]...)
					bad[rng.Intn(dim)] = []float64{math.NaN(), math.MaxFloat64, math.Inf(1)}[rng.Intn(3)]
					vecs[i] = bad
				}
				if err := ix.Upsert(i, vecs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n/5; i++ { // free slots, some of them refilled
				ix.Delete(rng.Intn(n))
			}
			for i := 0; i < n/10; i++ {
				ix.Upsert(n+i, vecs[rng.Intn(n)])
			}
			if seed%2 == 0 {
				rewire(ix, rng)
			}
			efs := []int{1, 8, 64, 120, len(ix.nodes) + 5}
			for i := 0; i < 12; i++ {
				q := vecs[rng.Intn(n)]
				if i%3 == 0 {
					q = make([]float64, dim)
					for j := range q {
						q[j] = rng.NormFloat64()
					}
				}
				checkBeam(t, ix, q, efs)
			}
			nan := make([]float64, dim)
			nan[0] = math.NaN()
			checkBeam(t, ix, nan, efs)
		})
	}
}

// FuzzBeam reads a two-layer graph from the fuzzer's bytes: coordinates on
// a grid of sixteenths with one byte value for NaN, link lists of any shape,
// a beam width and a query.
func FuzzBeam(f *testing.F) {
	f.Add([]byte{5, 3, 0, 16, 16, 32, 0x80, 0, 48, 48, 7, 1, 2, 3, 4, 0, 1, 2, 9, 9, 3, 3, 1})
	f.Add([]byte("beam search over whatever graph these bytes happen to spell out"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n, ef := 2+int(data[0]%30), 1+int(data[1]%40)
		data = data[2:]
		next := func() byte {
			b := data[0]
			data = append(data[1:], b+1) // cycles, and differs the next time round
			return b
		}
		coord := func() float64 {
			if b := next(); b != 0x80 {
				return float64(int8(b)) / 16
			}
			return math.NaN()
		}
		const dim = 2
		ix := newIndex(params{M: 4, EfConstruction: 8, EfSearch: 8}, 0)
		ix.dim, ix.entry, ix.maxLv = dim, 0, 1
		for s := 0; s < n; s++ {
			ix.vecs = append(ix.vecs, coord(), coord())
			ix.links0 = append(ix.links0, make([]uint32, ix.stride0)...)
			ix.nodes = append(ix.nodes, node{id: s, free: s > 0 && next()%8 == 0, upper: [][]uint32{make([]uint32, 0, ix.p.M+1)}})
		}
		for l := 0; l <= 1; l++ {
			for s := uint32(0); int(s) < n; s++ {
				links := ix.links(s, l)[:0]
				for want := int(next()) % (ix.layerCap(l) + 1); want > 0; want-- {
					if nb := uint32(int(next()) % n); nb != s && !slices.Contains(links, nb) {
						links = append(links, nb)
					}
				}
				ix.setLinks(s, l, links)
			}
		}
		checkBeam(t, ix, []float64{coord(), coord()}, []int{ef, n + 5})
	})
}
