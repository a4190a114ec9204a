package hnsw

import (
	"fmt"
	"runtime"
	"testing"

	"spidercache/internal/xrand"
)

func benchVecs(n, dim int) [][]float64 {
	rng := xrand.New(1)
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// unitVecs draws n vectors uniformly from the unit sphere.
func unitVecs(n, dim int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = unitVec(dim, rng)
	}
	return out
}

// clusteredVecs draws n unit-norm vectors around 64 unit-norm centroids
// (sigma 0.08 per coordinate, vector i in cluster i%64): the embedding space
// the wire_nget workload feeds the server's index.
func clusteredVecs(n, dim int) [][]float64 {
	const clusters, sigma = 64, 0.08
	rng := xrand.New(2)
	cent := make([][]float64, clusters)
	for c := range cent {
		cent[c] = unitVec(dim, rng)
	}
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = cent[i%clusters][j] + sigma*rng.NormFloat64()
		}
		normalize(v)
		out[i] = v
	}
	return out
}

// benchShapes are the two index shapes the repository runs: the trainer's
// (dim-32 Gaussian embeddings) and the wire tier's (dim-16 clustered
// unit-norm embeddings behind NGET/ESET).
var benchShapes = []struct {
	name string
	vecs func(n int) [][]float64
}{
	{"dim=32", func(n int) [][]float64 { return benchVecs(n, 32) }},
	{"dim=16", func(n int) [][]float64 { return clusteredVecs(n, 16) }},
}

func BenchmarkInsert(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			vecs := shape.vecs(b.N + 1)
			ix, _ := New(DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Upsert(i, vecs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Sinks keep the compiler from dropping a benchmark's measured call.
var (
	sinkResults []Result
	sinkFloat   float64
)

// BenchmarkSearchKNN times the trainer's search (k 24 at EfSearch) on both
// shapes, and the NGET lookup's (k 8 at width 24, kvserver's semSearchK and
// semSearchEf) on the wire tier's.
func BenchmarkSearchKNN(b *testing.B) {
	bench := func(name string, vecs func(n int) [][]float64, k, ef int) {
		b.Run(name, func(b *testing.B) {
			const n = 8000
			vecs := vecs(n)
			ix, _ := New(DefaultConfig())
			for i, v := range vecs {
				ix.Upsert(i, v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResults = ix.SearchKNNEf(vecs[i%n], k, ef)
			}
		})
	}
	for _, shape := range benchShapes {
		bench(shape.name, shape.vecs, 24, defaultParams.EfSearch)
	}
	bench("dim=16,k=8,ef=24", benchShapes[1].vecs, 8, 24)
}

// settleBatch is the trainer's mini-batch: the update benchmarks settle
// after every settleBatch updates, as its first search of a batch does, so
// that an op is an update and its share of the re-linking it causes.
const settleBatch = 64

// settleNow settles ix as any read would, without the read's own work.
func settleNow(ix *Index) {
	ix.mu.Lock()
	ix.settle()
	ix.mu.Unlock()
}

// BenchmarkUpdate replaces each point with another point's un-normalised
// Gaussian vector: every update teleports across the space, so none takes
// the UpdateEps shortcut and every one pays the full re-link.
func BenchmarkUpdate(b *testing.B) {
	const n = 4000
	vecs := benchVecs(n, 32)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Upsert(i%n, vecs[(i+1)%n]); err != nil {
			b.Fatal(err)
		}
		if (i+1)%settleBatch == 0 {
			settleNow(ix)
		}
	}
	settleNow(ix)
}

// BenchmarkUpdateDrift is the update the trainer issues: unit-norm dim-32
// points that each move a little per step. The step sizes reproduce the
// movement histogram of the train_local workload's later epochs (4 000
// points; about a sixth of the moves fall under UpdateEps = 0.02 and only
// copy the vector, a third lie in 0.02-0.08, most of the rest in 0.08-0.32).
// The drift is applied in place inside the timed loop (about 1% of an
// update) so that the loop allocates nothing of its own.
func BenchmarkUpdateDrift(b *testing.B) {
	const n, dim = 4000, 32
	rng := xrand.New(3)
	vecs := make([][]float64, n)
	ix, _ := New(DefaultConfig())
	for i := range vecs {
		vecs[i] = unitVec(dim, rng)
		ix.Upsert(i, vecs[i])
	}
	// sigma*sqrt(dim) is the expected step length.
	sigmas := [...]float64{0.002, 0.007, 0.014, 0.028, 0.028, 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, sigma := vecs[i%n], sigmas[rng.Intn(len(sigmas))]
		for j := range v {
			v[j] += sigma * rng.NormFloat64()
		}
		normalize(v)
		if err := ix.Upsert(i%n, v); err != nil {
			b.Fatal(err)
		}
		if (i+1)%settleBatch == 0 {
			settleNow(ix)
		}
	}
	settleNow(ix)
}

// TestSettleAllocs bounds what one settle allocates, once its buffers have
// grown: nothing on one core, and on four only its par.For fork: the block
// function and the WaitGroup its goroutines share, and for each core
// beyond the first a goroutine's closure and, when the runtime has no
// exited goroutine at hand to reuse, the goroutine itself. testing.AllocsPerRun measures on one core whatever
// GOMAXPROCS is, so the four-core count reads the allocator's statistics
// around the same loop itself. A search that the settle's beam answers
// allocates its result and nothing else.
func TestSettleAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	const n, runs = 2000, 50
	vecs := benchVecs(2*n, 32)
	ix, _ := New(DefaultConfig())
	for i := 0; i < n; i++ {
		ix.Upsert(i, vecs[i])
	}
	next := 0
	batch := func() {
		for range settleBatch {
			// A point takes a vector it has not held just before: a far
			// move, due a re-link.
			if err := ix.Upsert(next%n, vecs[(7*next+1)%len(vecs)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if len(ix.due) != settleBatch {
			t.Fatalf("%d of %d updates due a re-link", len(ix.due), settleBatch)
		}
		settleNow(ix)
	}
	if allocs := testing.AllocsPerRun(runs, batch); allocs != 0 {
		t.Fatalf("a settle of %d updates on one core allocates %v times", settleBatch, allocs)
	}
	q := storedVector(ix, (next-1)%n) // re-linked by the last settle
	if _, ok := ix.beamAt[vecHash(q)]; !ok {
		t.Fatal("the last settle kept no beam for a point it re-linked")
	}
	search := func() { sinkResults = ix.SearchKNN(q, 24) }
	if allocs := testing.AllocsPerRun(runs, search); allocs != 1 {
		t.Fatalf("a search answered from a settle's beam allocates %v times", allocs)
	}

	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	batch() // warm-up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		batch()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%v allocations per settle on %d cores", allocs, procs)
	if allocs > 1+2*(procs-1) {
		t.Fatalf("a settle of %d updates on %d cores allocates %v times", settleBatch, procs, allocs)
	}
}

// BenchmarkSettleThenScore is a batch of the trainer's scoring: 64 points
// move far enough to be due a re-link, and then each one's 24 nearest are
// searched for, the first search settling the batch and every one of them
// answered from the settle's beam. An op is the whole batch. One batch runs
// before the clock starts, so that the settle's buffers have grown: on one
// core an op then allocates the 64 results and nothing else.
func BenchmarkSettleThenScore(b *testing.B) {
	const n = 4000
	vecs := benchVecs(2*n, 32)
	ix, _ := New(DefaultConfig())
	for i := 0; i < n; i++ {
		ix.Upsert(i, vecs[i])
	}
	next := 0
	batch := func() {
		first := next
		for ; next < first+settleBatch; next++ {
			if err := ix.Upsert(next%n, vecs[(7*next+1)%len(vecs)]); err != nil {
				b.Fatal(err)
			}
		}
		for j := first; j < next; j++ {
			sinkResults = ix.SearchKNN(vecs[(7*j+1)%len(vecs)], 24)
		}
	}
	batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// churnIndex returns an index of the n points with ids 0..n-1 and the pool
// of 2n vectors the churn benchmarks cycle through: id i holds vecs[i%2n],
// so deleting the oldest id and inserting the next keeps n points of one
// distribution, none of them at the place of the one that left.
func churnIndex(b *testing.B, n int, shape func(n int) [][]float64) (*Index, [][]float64) {
	vecs := shape(2 * n)
	ix, _ := New(DefaultConfig())
	for i := 0; i < n; i++ {
		if err := ix.Upsert(i, vecs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return ix, vecs
}

// BenchmarkDelete times Delete alone at N = 4096, the wire tier's index
// size: the insert that refills the slot runs with the clock stopped.
func BenchmarkDelete(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			const n = 4096
			ix, vecs := churnIndex(b, n, shape.vecs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !ix.Delete(i) {
					b.Fatalf("id %d was not there", i)
				}
				b.StopTimer()
				if err := ix.Upsert(i+n, vecs[(i+n)%len(vecs)]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkChurn is one eviction as the index sees it: the oldest point
// out, a new one into the slot it left, at a steady N = 4096.
func BenchmarkChurn(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			const n = 4096
			ix, vecs := churnIndex(b, n, shape.vecs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !ix.Delete(i) {
					b.Fatalf("id %d was not there", i)
				}
				if err := ix.Upsert(i+n, vecs[(i+n)%len(vecs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernels times one distance row three ways: the scalar loop, a
// quarter of the four-row kernel, and a quarter of the early-abandoning
// compare against a bound the distances exceed three times over (the common
// case in selectHeuristic, where the candidate is far from the selected
// neighbours).
func BenchmarkKernels(b *testing.B) {
	for _, dim := range []int{16, 32} {
		vecs := benchVecs(5, dim)
		q, r0, r1, r2, r3 := vecs[0], vecs[1], vecs[2], vecs[3], vecs[4]
		b.Run(fmt.Sprintf("sqDist/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat += sqDist(q, r0)
			}
		})
		b.Run(fmt.Sprintf("sqDist4/dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i += 4 {
				s0, s1, s2, s3 := sqDist4(q, r0, r1, r2, r3)
				sinkFloat += s0 + s1 + s2 + s3
			}
		})
		b.Run(fmt.Sprintf("anyBelow4/dim=%d", dim), func(b *testing.B) {
			s0, s1, s2, s3 := sqDist4(q, r0, r1, r2, r3)
			bound := min(s0, s1, s2, s3) / 3
			for i := 0; i < b.N; i += 4 {
				if anyBelow4(q, r0, r1, r2, r3, bound) {
					sinkFloat++
				}
			}
		})
	}
}
