package kvserver

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"spidercache/internal/xrand"
)

// TestSemIndexRebuildDeterministic feeds two indexes the same ESET/unlink
// history, one that crosses the rebuild trigger, and wants every lookup
// answered identically afterwards. The rebuilt graph used to be inserted in
// map iteration order, which differs between two maps with the same keys.
func TestSemIndexRebuildDeterministic(t *testing.T) {
	const n, dim = 1000, 32
	rng := xrand.New(5)
	unit := func() []float64 {
		v := make([]float64, dim)
		var norm float64
		for j := range v {
			v[j] = rng.NormFloat64()
			norm += v[j] * v[j]
		}
		for j := range v {
			v[j] /= math.Sqrt(norm)
		}
		return v
	}
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = unit()
	}
	build := func() *semIndex {
		x := newSemIndex()
		for i, v := range vecs {
			if err := x.upsert(fmt.Sprintf("k%04d", i), v); err != nil {
				t.Fatal(err)
			}
		}
		// Unlink two keys in three: dead overtakes live on the way, so a
		// rebuild runs, and unlinks after it leave tombstones in the new
		// graph.
		for i := range vecs {
			if i%3 != 0 {
				x.unlink(fmt.Sprintf("k%04d", i))
			}
		}
		return x
	}
	a, b := build(), build()
	if a.ix.Len() == n {
		t.Fatal("history never triggered a rebuild")
	}
	if la, lb := a.ix.Len(), b.ix.Len(); la != lb {
		t.Fatalf("rebuilt graphs hold %d and %d points", la, lb)
	}
	// Two graphs over the same points mostly agree; it takes a few thousand
	// queries to be sure of meeting one they answer differently.
	queries := vecs
	for len(queries) < 6*n {
		queries = append(queries, unit())
	}
	for i, q := range queries {
		if ra, rb := a.lookup(q), b.lookup(q); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %d answered differently after the rebuild:\n%v\n%v", i, ra, rb)
		}
	}
}
