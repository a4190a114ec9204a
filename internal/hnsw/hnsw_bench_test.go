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

// searchOp builds an index of 8 000 points of a shape and returns the op of
// BenchmarkSearchKNN's rows: the i-th searches for the (i mod 8 000)-th
// point's vector at (k, ef), into the slice of the search before it when
// reuse is set and into a new one otherwise.
func searchOp(vecs func(n int) [][]float64, k, ef int, reuse bool) func(i int) {
	const n = 8000
	vs := vecs(n)
	ix, _ := New(DefaultConfig())
	for i, v := range vs {
		ix.Upsert(i, v)
	}
	var dst []Result
	return func(i int) {
		if reuse {
			dst = sinkResults
		}
		sinkResults = ix.SearchKNNEf(dst, vs[i%n], k, ef)
	}
}

// searchRows are the searches the repository runs: the trainer's (k 24 at
// EfSearch, SearchKNN's new slice per search) on both shapes, and the NGET
// lookup's (k 8 at width 24, kvserver's semSearchK and semSearchEf, into
// its session's slice) on the wire tier's.
var searchRows = []struct {
	name  string
	vecs  func(n int) [][]float64
	k, ef int
	reuse bool
}{
	{benchShapes[0].name, benchShapes[0].vecs, 24, defaultParams.EfSearch, false},
	{benchShapes[1].name, benchShapes[1].vecs, 24, defaultParams.EfSearch, false},
	{"dim=16,k=8,ef=24", benchShapes[1].vecs, 8, 24, true},
}

// BenchmarkSearchKNN times searchRows.
func BenchmarkSearchKNN(b *testing.B) {
	for _, row := range searchRows {
		b.Run(row.name, func(b *testing.B) {
			op := searchOp(row.vecs, row.k, row.ef, row.reuse)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
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

// updateOp is BenchmarkUpdate's op: the i-th replaces point i mod 4 000
// with the next point's un-normalised Gaussian vector, so every update
// teleports across the space, none takes the UpdateEps shortcut and every
// one pays the full re-link. Every settleBatch-th op settles.
func updateOp(tb testing.TB) (*Index, func(i int)) {
	const n = 4000
	vecs := benchVecs(n, 32)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	return ix, func(i int) {
		if err := ix.Upsert(i%n, vecs[(i+1)%n]); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%settleBatch == 0 {
			settleNow(ix)
		}
	}
}

// BenchmarkUpdate times updateOp.
func BenchmarkUpdate(b *testing.B) {
	ix, op := updateOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	settleNow(ix)
}

// updateDriftOp is BenchmarkUpdateDrift's op, the update the trainer
// issues: unit-norm dim-32 points that each move a little per step. The
// step sizes reproduce the movement histogram of the train_local
// workload's later epochs (4 000 points; about a sixth of the moves fall
// under UpdateEps = 0.02 and only copy the vector, a third lie in
// 0.02-0.08, most of the rest in 0.08-0.32). The drift is applied in place
// (about 1% of an update) so that the op allocates nothing of its own.
// Every settleBatch-th op settles.
func updateDriftOp(tb testing.TB) (*Index, func(i int)) {
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
	return ix, func(i int) {
		v, sigma := vecs[i%n], sigmas[rng.Intn(len(sigmas))]
		for j := range v {
			v[j] += sigma * rng.NormFloat64()
		}
		normalize(v)
		if err := ix.Upsert(i%n, v); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%settleBatch == 0 {
			settleNow(ix)
		}
	}
}

// BenchmarkUpdateDrift times updateDriftOp.
func BenchmarkUpdateDrift(b *testing.B) {
	ix, op := updateDriftOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
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

// TestHotPathAllocs counts what each benchmarked hot path allocates, with
// the benchmark's own index and op. The trainer upserts and searches the
// index once per sample per batch, the cache tier deletes from it once per
// eviction, and the index's hot path takes its working memory from a
// pooled scratch: an allocation there would silently reintroduce per-op
// garbage, and only a benchmark's -benchmem column would show it. The
// bounds:
//   - Update, UpdateDrift: an update of an existing point, with its share
//     of the settle that re-links the batch, allocates nothing. A run is a
//     whole batch of settleBatch updates and its settle, so that one
//     allocation per settle fails the row too.
//   - Delete: nothing, counted around Delete alone, without the insert
//     that refills the slot, as BenchmarkDelete's stopped clock leaves it
//     out.
//   - SearchKNN: at the trainer's width, the slice it returns and no
//     more; at the NGET lookup's, into the slice of the search before it,
//     nothing.
//   - SettleThenScore: a batch of scoring allocates its 64 results and no
//     more.
//
// Every row counts on one core, as testing.AllocsPerRun does, where a
// settle calls its one picker directly. On more cores a settle forks its
// pickers through par.For, which allocates the block function, a
// WaitGroup and a goroutine closure per extra block; TestSettleAllocs
// bounds that on four.
func TestHotPathAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 50
	// batchOf runs settleBatch ops of an update op, the last of which
	// settles.
	batchOf := func(op func(i int)) func() {
		next := 0
		return func() {
			for range settleBatch {
				op(next)
				next++
			}
		}
	}
	type row struct {
		name   string
		max    float64
		allocs func(t *testing.T) float64
	}
	rows := []row{
		{"Update", 0, func(t *testing.T) float64 {
			_, op := updateOp(t)
			return testing.AllocsPerRun(runs, batchOf(op))
		}},
		{"UpdateDrift", 0, func(t *testing.T) float64 {
			_, op := updateDriftOp(t)
			return testing.AllocsPerRun(runs, batchOf(op))
		}},
		{"SettleThenScore", settleBatch, func(t *testing.T) float64 {
			return testing.AllocsPerRun(runs, scoreBatchOp(t))
		}},
	}
	for _, sr := range searchRows {
		bound := 1.0 // the new slice
		if sr.reuse {
			bound = 0
		}
		rows = append(rows, row{"SearchKNN/" + sr.name, bound, func(*testing.T) float64 {
			op, i := searchOp(sr.vecs, sr.k, sr.ef, sr.reuse), 0
			return testing.AllocsPerRun(runs, func() { op(i); i++ })
		}})
	}
	for _, shape := range benchShapes {
		rows = append(rows, row{"Delete/" + shape.name, 0, func(t *testing.T) float64 {
			del, refill := deleteOp(t, shape.vecs)
			return allocsAround(runs, del, refill)
		}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := r.allocs(t)
			t.Logf("%v allocs/op", got)
			if got > r.max {
				t.Errorf("%v allocs/op, want at most %v", got, r.max)
			}
		})
	}
}

// allocsAround is testing.AllocsPerRun for op alone: after(i) runs after
// each op(i) and is not counted, like work a benchmark does with its clock
// stopped.
func allocsAround(runs int, op, after func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op(0) // warm-up, as AllocsPerRun does
	after(0)
	var before, now runtime.MemStats
	var mallocs uint64
	for i := 1; i <= runs; i++ {
		runtime.ReadMemStats(&before)
		op(i)
		runtime.ReadMemStats(&now)
		mallocs += now.Mallocs - before.Mallocs
		after(i)
	}
	return float64(mallocs / uint64(runs))
}

// scoreBatchOp is BenchmarkSettleThenScore's op, a batch of the trainer's
// scoring: 64 points move far enough to be due a re-link, and then each
// one's 24 nearest are searched for, the first search settling the batch
// and every one of them answered from the settle's beam. One batch runs
// before it is returned, so that the settle's buffers have grown: on one
// core a batch then allocates the 64 results and nothing else.
func scoreBatchOp(tb testing.TB) func() {
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
				tb.Fatal(err)
			}
		}
		for j := first; j < next; j++ {
			sinkResults = ix.SearchKNN(vecs[(7*j+1)%len(vecs)], 24)
		}
	}
	batch()
	return batch
}

// BenchmarkSettleThenScore times scoreBatchOp. An op is the whole batch.
func BenchmarkSettleThenScore(b *testing.B) {
	batch := scoreBatchOp(b)
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
func churnIndex(tb testing.TB, n int, shape func(n int) [][]float64) (*Index, [][]float64) {
	vecs := shape(2 * n)
	ix, _ := New(DefaultConfig())
	for i := 0; i < n; i++ {
		if err := ix.Upsert(i, vecs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return ix, vecs
}

// deleteOp is BenchmarkDelete's op at N = 4096, the wire tier's index
// size: del(i) deletes id i, and refill(i) inserts id i+4096 into the slot
// it left.
func deleteOp(tb testing.TB, shape func(n int) [][]float64) (del, refill func(i int)) {
	const n = 4096
	ix, vecs := churnIndex(tb, n, shape)
	del = func(i int) {
		if !ix.Delete(i) {
			tb.Fatalf("id %d was not there", i)
		}
	}
	refill = func(i int) {
		if err := ix.Upsert(i+n, vecs[(i+n)%len(vecs)]); err != nil {
			tb.Fatal(err)
		}
	}
	return del, refill
}

// BenchmarkDelete times Delete alone: the insert that refills the slot
// runs with the clock stopped.
func BenchmarkDelete(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			del, refill := deleteOp(b, shape.vecs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				del(i)
				b.StopTimer()
				refill(i)
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
