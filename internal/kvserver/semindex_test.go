package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// clusteredUnit draws n unit vectors of dimensionality dim around 64
// centroids, sigma 0.08 per coordinate: the embedding space of the
// wire_nget workload.
func clusteredUnit(n, dim int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	unit := func(center []float64) []float64 {
		v := make([]float64, dim)
		var norm float64
		for j := range v {
			v[j] = rng.NormFloat64()
			if center != nil {
				v[j] = center[j] + 0.08*v[j]
			}
			norm += v[j] * v[j]
		}
		for j := range v {
			v[j] /= math.Sqrt(norm)
		}
		return v
	}
	centers := make([][]float64, 64)
	for c := range centers {
		centers[c] = unit(nil)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = unit(centers[i%len(centers)])
	}
	return out
}

// raceBuild reports whether the test binary was built with -race, under
// which a timing limit on single-goroutine code measures the detector.
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

// TestSemIndexChurnIsBounded is the eviction pattern of a full cache seen
// from the index: 4 096 live embeddings, and for every new one an old one
// unlinked first. No call may take longer than a request's latency budget
// (rebuilding a graph of this size takes ~0.4 s), the graph
// may never hold more slots than the live set needs, and whatever a lookup
// returns must be mapped at that moment.
func TestSemIndexChurnIsBounded(t *testing.T) {
	const live, limit = 4096, 20 * time.Millisecond
	pairs := 50000
	timed := true
	if testing.Short() || raceBuild() {
		pairs, timed = 5000, false
	}
	vecs := clusteredUnit(live+pairs, 16, 3)
	key := func(i int) string { return fmt.Sprintf("k%06d", i) }
	x := newSemIndex()
	for i := 0; i < live; i++ {
		if err := x.upsert([]byte(key(i)), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var worst time.Duration
	worstOp, over := "", 0
	clock := func(op string, i int, f func()) {
		start := time.Now()
		f()
		d := time.Since(start)
		if d > limit {
			over++
		}
		if d > worst {
			worst, worstOp = d, fmt.Sprintf("%s %d", op, i)
		}
	}
	for i := 0; i < pairs; i++ {
		// Uniform keys under LRU: the victim is the oldest key.
		clock("unlink", i, func() {
			if !x.unlink(key(i)) {
				t.Fatalf("%s had no embedding to unlink", key(i))
			}
		})
		if n := x.ix.Len() + x.ix.Free(); n > live {
			t.Fatalf("pair %d: graph holds %d slots for %d live embeddings", i, n, live-1)
		}
		clock("upsert", i, func() {
			if err := x.upsert([]byte(key(live+i)), vecs[live+i]); err != nil {
				t.Fatal(err)
			}
		})
		if n, free := x.ix.Len(), x.ix.Free(); n != live || free != 0 {
			t.Fatalf("pair %d: %d points and %d free slots, want %d and 0", i, n, free, live)
		}
		if i%16 != 0 {
			continue
		}
		near := x.lookup(new(session), vecs[live+i])
		if len(near) != semSearchK || near[0].key != key(live+i) || near[0].dist > 1e-12 {
			t.Fatalf("pair %d: the embedding just stored is not its own nearest neighbour: %v", i, near)
		}
		for _, nb := range near {
			if _, mapped := x.byKey[nb.key]; !mapped {
				t.Fatalf("pair %d: lookup returned %s, which is unlinked", i, nb.key)
			}
		}
	}
	t.Logf("slowest call over %d pairs: %s, %v; %d calls over %v", pairs, worstOp, worst, over, limit)
	// The clock is the wall's, and on a shared host a descheduled test
	// stretches whichever call it was in: two such calls in 100 000 are
	// let pass. Maintenance that scales with the index does not hide in
	// that allowance: a rebuild every 4 100 unlinks is twelve calls here.
	if timed && over > 2 {
		t.Fatalf("%d calls took over %v, the slowest (%s) %v; no index maintenance may", over, limit, worstOp, worst)
	}
}

// wireEmbeddings is the wire_nget workload's key space as the server
// indexes it: key i sits in cluster i%64, at its centroid plus Gaussian
// noise of sigma 0.08 per coordinate, with centroids at cosine distance
// 0.6 or more from one another; each embedding crosses the wire as
// float32s and is unit-normalized again on arrival, as readEmbedding does.
func wireEmbeddings(keys, dim int, seed uint64) [][]float64 {
	const clusters, sigma = 64, 0.08
	rng := xrand.New(seed)
	unit := func(v []float64) {
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		for j := range v {
			v[j] /= math.Sqrt(norm)
		}
	}
	var cents [][]float64
	for len(cents) < clusters {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		unit(c)
		far := true
		for _, o := range cents {
			if 1-dot(c, o) < 0.6 {
				far = false
				break
			}
		}
		if far {
			cents = append(cents, c)
		}
	}
	out := make([][]float64, keys)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = cents[i%clusters][j] + sigma*rng.NormFloat64()
		}
		unit(v)
		for j := range v {
			v[j] = float64(float32(v[j]))
		}
		unit(v)
		out[i] = v
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TestSemIndexRecallAtWidth is the recall oracle behind semSearchEf. The
// index holds 4 096 of wire_nget's 16 384 keys after 40 000 evictions,
// each followed by the insert of a key that was not resident, and 3 000
// keys that are not resident are then looked up and checked against a
// scan of the residents. The first result must be the exact nearest
// resident for at least 99.9% of them, and every query whose nearest
// resident is inside NGET's default threshold of 0.3 must get a result
// inside it. At width 16 the first bar fails (0.9973).
func TestSemIndexRecallAtWidth(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("80 000 index updates: seconds, and minutes under -race")
	}
	const keys, live, churn, queries, threshold = 16384, 4096, 40000, 3000, 0.3
	vecs := wireEmbeddings(keys, 16, 1)
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	x := newSemIndex()
	resident := make([]int, live) // resident keys, in no order
	isResident := make([]bool, keys)
	for i := range resident {
		resident[i], isResident[i] = i, true
		if err := x.upsert([]byte(key(i)), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rng := xrand.New(2)
	absent := func() int {
		for {
			if k := rng.Intn(keys); !isResident[k] {
				return k
			}
		}
	}
	for i := 0; i < churn; i++ {
		slot := rng.Intn(live)
		if !x.unlink(key(resident[slot])) {
			t.Fatalf("step %d: %s had no embedding to unlink", i, key(resident[slot]))
		}
		isResident[resident[slot]] = false
		k := absent()
		if err := x.upsert([]byte(key(k)), vecs[k]); err != nil {
			t.Fatal(err)
		}
		resident[slot], isResident[k] = k, true
	}
	exact, near, served := 0, 0, 0
	for i := 0; i < queries; i++ {
		q := vecs[absent()]
		best, bestDist := -1, math.Inf(1)
		for _, r := range resident {
			if d := 1 - dot(q, vecs[r]); d < bestDist {
				best, bestDist = r, d
			}
		}
		got := x.lookup(new(session), q)
		if len(got) > 0 && got[0].key == key(best) {
			exact++
		}
		if bestDist <= threshold {
			near++
			if len(got) > 0 && got[0].dist <= threshold {
				served++
			}
		}
	}
	ratio := float64(exact) / queries
	t.Logf("width %d: first result exact for %.4f of %d queries; %d of %d with a resident inside %.1f got one",
		semSearchEf, ratio, queries, served, near, threshold)
	if ratio < 0.999 {
		t.Errorf("first result is the nearest resident for %.4f of queries at width %d, want >= 0.999", ratio, semSearchEf)
	}
	if served != near {
		t.Errorf("%d of %d queries with a resident inside %.1f got no result inside it at width %d",
			near-served, near, threshold, semSearchEf)
	}
}

// TestSemIndexFailedUpsertChangesNothing: an embedding the index refuses
// leaves the maps, the id counter, the graph's size and its free list as
// they were, whether its key is new, known, or was unlinked a moment ago.
func TestSemIndexFailedUpsertChangesNothing(t *testing.T) {
	vecs := clusteredUnit(300, 16, 4)
	x := newSemIndex()
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < 200; i++ {
		if err := x.upsert([]byte(key(i)), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // churn: 100 out, 60 in, 40 slots left free
		x.unlink(key(i))
		if i < 60 {
			if err := x.upsert([]byte(key(200+i)), vecs[200+i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	type state struct {
		byKey      map[string]int
		byID       map[int]string
		next       int
		live, free int
		nearest    []semNeighbor
	}
	snapshot := func() state {
		s := state{byKey: map[string]int{}, byID: map[int]string{}, next: x.next,
			live: x.ix.Len(), free: x.ix.Free(), nearest: x.lookup(new(session), vecs[150])}
		for k, v := range x.byKey {
			s.byKey[k] = v
		}
		for k, v := range x.byID {
			s.byID[k] = v
		}
		return s
	}
	before := snapshot()
	if before.live != 160 || before.free != 40 {
		t.Fatalf("warm-up left %d live, %d free; want 160 and 40", before.live, before.free)
	}
	for _, tc := range []struct{ name, key string }{
		{"new key", "never-seen"},
		{"known key", key(150)},
		{"unlinked key", key(80)},
	} {
		for _, dim := range []int{15, 17, 1} {
			if err := x.upsert([]byte(tc.key), make([]float64, dim)); err != errBadEmbedDim {
				t.Fatalf("%s, dim %d: err = %v, want %v", tc.name, dim, err, errBadEmbedDim)
			}
			if after := snapshot(); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s, dim %d: refused upsert changed the index:\n%+v\n%+v", tc.name, dim, before, after)
			}
		}
	}
	// And the next accepted one takes a free slot and the next id.
	if err := x.upsert([]byte("never-seen"), vecs[299]); err != nil {
		t.Fatal(err)
	}
	if x.byKey["never-seen"] != before.next || x.ix.Free() != 39 {
		t.Fatalf("accepted upsert got id %d (want %d), %d free slots (want 39)", x.byKey["never-seen"], before.next, x.ix.Free())
	}
}

// TestESetDimFollowsTheIndex: the first embedding fixes the index's
// dimensionality only for as long as the index holds one. Once eviction
// has emptied it, the node takes another dimensionality without a restart.
func TestESetDimFollowsTheIndex(t *testing.T) {
	srv := startServer(t, 1) // capacity 1: SET b evicts a
	c := dial(t, srv)
	if err := c.Set("a", []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := eset(c, "a", unit(1, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// A protocol error closes the connection: each refusal gets its own.
	refused := func(emb []float32) {
		t.Helper()
		if err := eset(dial(t, srv), "b", emb); err == nil || !strings.Contains(err.Error(), "bad embedding dim") {
			t.Fatalf("ESET dim %d beside a live dim-4 index: err = %v", len(emb), err)
		}
	}
	wide := unit(1, 0, 0, 0, 0, 0, 0, 0)
	refused(wide)
	if _, near, found, err := nget(c, "q", wide, 0.5); err != nil || found || near != nil {
		t.Fatalf("dim-8 NGET on a dim-4 index = %v %v %v, want a miss", near, found, err)
	}
	if err := c.Set("b", []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if err := eset(c, "b", wide); err != nil {
		t.Fatalf("ESET dim 8 after the last dim-4 embedding was evicted: %v", err)
	}
	v, near, found, err := nget(c, "q", unit(1, 0.01, 0, 0, 0, 0, 0, 0), 0.5)
	if err != nil || !found || near == nil || near.Key != "b" || string(v) != "vb" {
		t.Fatalf("dim-8 NGET = %q %v %v %v, want vb NEAR b", v, near, found, err)
	}
	refused(unit(1, 0, 0, 0))
}

// TestSemIndexNeverOutgrowsStore: the index holds an embedding only while
// its key is resident, whatever order a client sends SETs and ESETs in.
// A seeded single-connection history over 48 keys at capacity 16 ESETs
// keys that are resident, keys never SET, keys LRU-evicted since their SET
// and keys the history pushed out on purpose (it touches every other
// resident key, then SETs a filler that evicts the chosen one). After
// every op the live index points may not exceed kv_items, and every
// indexed key must be resident: otherwise a client could grow a node's
// memory past -capacity without bound.
func TestSemIndexNeverOutgrowsStore(t *testing.T) {
	srv := startServer(t, 16) // one shard, strict LRU
	c := dial(t, srv)
	rng := xrand.New(11)
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(48)) }
	emb := func() []float32 {
		v := make([]float32, 4)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		return v
	}
	set, pushed := map[string]bool{}, map[string]bool{}
	var esetNever, esetEvicted, esetPushed int
	for op := 0; op < 1500; op++ {
		var err error
		switch r := rng.Intn(10); {
		case r < 4:
			k := key()
			err = c.Set(k, []byte(k))
			set[k], pushed[k] = true, false
		case r < 8:
			k := key()
			if !srv.store.has([]byte(k)) && set[k] {
				if pushed[k] {
					esetPushed++
				} else {
					esetEvicted++
				}
			}
			err = eset(c, k, emb())
		case r < 9:
			k := key()
			if !srv.store.has([]byte(k)) {
				break
			}
			for _, other := range residentKeys(srv) {
				if other != k {
					if _, _, err = c.Get(other); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = c.Set(fmt.Sprintf("filler-%d", op), nil) // evicts k, the LRU tail
				pushed[k] = true
			}
		default:
			esetNever++
			err = eset(c, fmt.Sprintf("never-set-%d", op), emb())
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		text, err := metrics(c)
		if err != nil {
			t.Fatal(err)
		}
		live, _ := scrapeGauge(text, `kv_semantic_index_points{state="live"}`)
		items, _ := scrapeGauge(text, "kv_items")
		if live > items {
			t.Fatalf("op %d: %v live index points for %v resident items", op, live, items)
		}
		srv.sem.mu.Lock()
		indexed := make([]string, 0, len(srv.sem.byKey))
		for k := range srv.sem.byKey {
			indexed = append(indexed, k)
		}
		srv.sem.mu.Unlock()
		for _, k := range indexed {
			if !srv.store.has([]byte(k)) {
				t.Fatalf("op %d: %s is indexed but not resident", op, k)
			}
		}
	}
	if esetNever == 0 || esetEvicted == 0 || esetPushed == 0 {
		t.Fatalf("history too narrow: %d ESETs of never-SET keys, %d of evicted, %d of pushed out",
			esetNever, esetEvicted, esetPushed)
	}
}

// TestMetricsSemanticIndex: METRICS shows how many slots the index holds
// and in which state, how many links its graph holds (a free slot keeps
// its own until it is reused; the links to it go at once), and what
// removing an embedding cost on the path of the SET that evicted its key.
func TestMetricsSemanticIndex(t *testing.T) {
	srv := startServer(t, 3) // one shard, strict LRU
	c := dial(t, srv)
	scrape := func(wantLive, wantFree, wantLinks, wantUnlinks float64) {
		t.Helper()
		text, err := metrics(c)
		if err != nil {
			t.Fatal(err)
		}
		for series, want := range map[string]float64{
			`kv_semantic_index_points{state="live"}`: wantLive,
			`kv_semantic_index_points{state="free"}`: wantFree,
			`kv_semantic_index_links`:                wantLinks,
			`kv_semantic_unlink_seconds_count`:       wantUnlinks,
		} {
			if got, ok := scrapeGauge(text, series); !ok || got != want {
				t.Fatalf("%s = %v (present %v), want %v:\n%s", series, got, ok, want, text)
			}
		}
		for _, help := range []string{"# HELP kv_semantic_index_points ", "# HELP kv_semantic_index_links ", "# HELP kv_semantic_unlink_seconds "} {
			if !strings.Contains(text, help) {
				t.Fatalf("METRICS has no %q", help)
			}
		}
	}
	scrape(0, 0, 0, 0)
	for i, k := range []string{"a", "b", "c"} {
		if err := c.Set(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := eset(c, k, unit(1, float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	scrape(3, 0, 6, 0)
	if err := c.Set("d", []byte("v")); err != nil { // evicts a and its embedding
		t.Fatal(err)
	}
	scrape(2, 1, 4, 1)
	if err := eset(c, "d", unit(1, 3)); err != nil { // takes the slot
		t.Fatal(err)
	}
	scrape(3, 0, 6, 1)
	if err := c.Set("e", []byte("v")); err != nil { // evicts b and its embedding
		t.Fatal(err)
	}
	scrape(2, 1, 4, 2)
	for _, k := range []string{"c", "d"} { // e becomes the LRU tail
		if _, _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set("f", []byte("v")); err != nil { // evicts e: nothing to unlink
		t.Fatal(err)
	}
	scrape(2, 1, 4, 2)
}

// TestESetBesideEvictingSetsLockOrder: an ESET of a key that is not
// resident takes semIndex.mu (the upsert), then the key's shard mutex
// (the residency probe), then semIndex.mu again (the unlink); a SET that
// evicts takes the shard mutex, then semIndex.mu through the evict hook.
// The two deadlock as soon as either path holds one of those locks while
// taking the other: the hook must run after the shard mutex is released,
// and doESet must probe the store outside semIndex.mu. Both kinds run
// here at once on a one-shard store, under the test's own deadline, so a
// nested acquisition fails by name and not by the suite's timeout. The
// requests go through serveOne on in-process sessions: a deadlocked run
// leaves no listener or handler for the cleanup to wait on.
func TestESetBesideEvictingSetsLockOrder(t *testing.T) {
	const (
		workers  = 2 // of each kind
		requests = 2000
		deadline = 10 * time.Second
	)
	srv := newServerCore(newStore(64), telemetry.NewRegistry())
	if n := srv.store.numShards(); n != 1 {
		t.Fatalf("%d shards, want 1", n)
	}
	emb := embedPayload(unit(1, 2, 3, 4))
	done := make(chan error, 2*workers)
	serve := func(stream []byte) {
		sess := newSession(bufio.NewReader(bytes.NewReader(stream)), bufio.NewWriter(io.Discard))
		for {
			if err := srv.serveOne(sess); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				done <- err
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		var esets, sets []byte
		for i := 0; i < requests; i++ {
			esets = fmt.Appendf(esets, "ESET never-set-%d-%d 4\r\n", w, i) // not resident
			esets = append(esets, emb...)
			sets = fmt.Appendf(sets, "SET k%d-%d 1\r\nv\r\n", w, i) // a new key: evicts once full
		}
		go serve(esets)
		go serve(sets)
	}
	timeout := time.After(deadline)
	for i := 0; i < 2*workers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("ESETs of non-resident keys beside evicting SETs did not finish within %v: "+
				"the shard mutex and semIndex.mu were taken in opposite orders", deadline)
		}
	}
	if live, _ := srv.sem.size(); live != 0 {
		t.Errorf("%d embeddings indexed for keys that were never resident", live)
	}
}
