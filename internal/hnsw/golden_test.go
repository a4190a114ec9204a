package hnsw

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"spidercache/internal/xrand"
)

// Hashes of goldenTrace. Search results and link lists are a function of
// every rounding and every tie-break in the package, and training
// trajectories are a function of them, so a change that moves either
// constant has changed the reproduction's numbers: explain it in DESIGN.md
// and re-record, or fix it. History: 0x9405774874bb4765 / 0xc6824fde6f085507
// were recorded on PR 11's per-node vectors and scalar sqDist and held
// through the arena, the four-row kernel, in-place delete and the switch
// from two heaps to one sorted beam; 0x8f4afb5bfbba7607 / 0x7a1872c9a7b7723c
// were recorded when selectHeuristic stopped refilling lists to their cap
// and UpdateEps began to count the path a point has moved (DESIGN.md
// section 10, with the recall measurements that justify them). The search
// hash held when updates became deferred and settled in batches; the links
// hash moved, because the points re-linked by one settle are selected
// against the graph as it stood before any of them was installed, where
// each used to see the links of the one before (DESIGN.md section 10, "One
// update per batch").
const (
	goldenSearchHash = 0x8f4afb5bfbba7607
	goldenLinksHash  = 0x4c46425078f8231c
)

// normalize scales v to unit length in place.
func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	s = math.Sqrt(s)
	for i := range v {
		v[i] /= s
	}
}

// wordHash is FNV-64a fed one 64-bit word at a time.
type wordHash struct{ hash.Hash64 }

func (h wordHash) put(v uint64) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], v)
	h.Write(word[:])
}

func unitVec(dim int, rng *xrand.Rand) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)
	return v
}

// drifted returns v moved by Gaussian noise of the given per-coordinate
// sigma and projected back onto the unit sphere.
func drifted(v []float64, sigma float64, rng *xrand.Rand) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] + sigma*rng.NormFloat64()
	}
	normalize(out)
	return out
}

// goldenTrace runs a fixed-seed workload shaped like the trainer's: n
// unit-norm dim-32 inserts, then three rounds in which every point drifts by
// a step drawn on either side of UpdateEps (so both the copy-only and the
// re-link path of Upsert run), with a SearchKNN after every fourth upsert.
// It returns a hash over every result (id, distance bits) and a hash over
// every node's id, level and link lists.
func goldenTrace(t testing.TB) (searchHash, linksHash uint64) {
	const n, dim, k, rounds = 1500, 32, 24, 3
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(20250926)
	sh := wordHash{fnv.New64a()}
	search := func(q []float64) {
		res := ix.SearchKNN(q, k)
		sh.put(uint64(len(res)))
		for _, r := range res {
			sh.put(uint64(r.ID))
			sh.put(math.Float64bits(r.Dist))
		}
	}
	vecs := make([][]float64, n)
	ops := 0
	upsert := func(i int) {
		// External ids are not slot numbers.
		if err := ix.Upsert(7*i+3, vecs[i]); err != nil {
			t.Fatal(err)
		}
		if ops++; ops%4 == 0 {
			search(vecs[(i*31+ops)%ix.Len()])
		}
	}
	for i := range vecs {
		vecs[i] = unitVec(dim, rng)
		upsert(i)
	}
	// UpdateEps is 0.02: sigma*sqrt(dim) is the expected step, so these
	// land at about 0.4x, 0.9x, 1.1x and 3x of it.
	sigmas := [...]float64{0.0015, 0.0032, 0.0039, 0.0106}
	for r := 0; r < rounds; r++ {
		for j := 0; j < n; j++ {
			i := (j*17 + r) % n // not insertion order; 17 is coprime to n
			vecs[i] = drifted(vecs[i], sigmas[rng.Intn(len(sigmas))], rng)
			upsert(i)
		}
		for q := 0; q < 50; q++ {
			search(unitVec(dim, rng))
		}
	}
	return sh.Sum64(), hashLinks(ix)
}

// hashLinks hashes every node's external id, level and per-layer neighbour
// lists (as external ids, in stored order) in slot order.
func hashLinks(ix *Index) uint64 {
	h := wordHash{fnv.New64a()}
	h.put(uint64(ix.entry))
	h.put(uint64(ix.maxLv))
	for i := range ix.nodes {
		level := len(ix.nodes[i].upper)
		h.put(uint64(ix.nodes[i].id))
		h.put(uint64(level))
		for l := 0; l <= level; l++ {
			links := ix.links(uint32(i), l)
			h.put(uint64(len(links)))
			for _, nb := range links {
				h.put(uint64(ix.nodes[nb].id))
			}
		}
	}
	return h.Sum64()
}

// TestGoldenTrace runs the trace on one core and on four: a settle selects
// on as many as there are, and what it installs must not depend on it.
func TestGoldenTrace(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			gotSearch, gotLinks := goldenTrace(t)
			if gotSearch != goldenSearchHash || gotLinks != goldenLinksHash {
				t.Fatalf("golden trace moved:\n search hash %#x (want %#x)\n links hash  %#x (want %#x)",
					gotSearch, uint64(goldenSearchHash), gotLinks, uint64(goldenLinksHash))
			}
		})
	}
}
