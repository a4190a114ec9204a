package kvserver

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"

	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// embedPayload renders emb as the wire embedding frame (little-endian
// float32s followed by CRLF).
func embedPayload(emb []float32) []byte {
	buf := make([]byte, 0, 4*len(emb)+2)
	for _, x := range emb {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	}
	return append(buf, '\r', '\n')
}

// unit returns v scaled to unit norm.
func unit(v ...float32) []float32 {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	n = math.Sqrt(n)
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(float64(x) / n)
	}
	return out
}

// readReply consumes exactly one protocol reply from r: a line, plus the
// payload for VALUE/NEAR replies. It returns the raw bytes.
func readReply(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read reply line: %v", err)
	}
	out := append([]byte(nil), line...)
	fields := bytes.Fields(line)
	var n int
	switch {
	case len(fields) == 2 && string(fields[0]) == "VALUE":
		fmt.Sscanf(string(fields[1]), "%d", &n)
	case len(fields) == 4 && string(fields[0]) == "NEAR":
		fmt.Sscanf(string(fields[3]), "%d", &n)
	default:
		return out
	}
	payload := make([]byte, n+2)
	if _, err := io.ReadFull(r, payload); err != nil {
		t.Fatalf("read reply payload: %v", err)
	}
	return append(out, payload...)
}

// TestNGetThresholdZeroMatchesGet: with threshold 0 an NGET must behave
// as a GET with extra bytes on the request — byte-identical replies for
// hits and misses alike.
func TestNGetThresholdZeroMatchesGet(t *testing.T) {
	srv := startServer(t, 64)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	emb := embedPayload(unit(1, 0, 0, 0))
	fmt.Fprint(conn, "SET k 5\r\nhello\r\n")
	if got := readReply(t, r); string(got) != "STORED\r\n" {
		t.Fatalf("SET reply %q", got)
	}
	conn.Write([]byte("ESET k 4\r\n"))
	conn.Write(emb)
	if got := readReply(t, r); string(got) != "STORED\r\n" {
		t.Fatalf("ESET reply %q", got)
	}

	for _, key := range []string{"k", "missing"} {
		fmt.Fprintf(conn, "GET %s\r\n", key)
		getReply := readReply(t, r)
		fmt.Fprintf(conn, "NGET %s 0 4\r\n", key)
		conn.Write(emb)
		ngetReply := readReply(t, r)
		if !bytes.Equal(getReply, ngetReply) {
			t.Fatalf("key %q: GET %q != NGET(threshold 0) %q", key, getReply, ngetReply)
		}
	}
}

// TestNGetNearServing covers the full semantic path through the Client:
// exact hit, near hit (with the neighbor's value and distance), distance
// cutoff, and eviction unlinking the embedding.
func TestNGetNearServing(t *testing.T) {
	srv := startServer(t, 1) // capacity 1: the next SET evicts a
	c := dial(t, srv)

	vecA := unit(1, 0, 0, 0)
	nearA := unit(1, 0.05, 0, 0) // cosine distance ≈ 0.00125
	ortho := unit(0, 1, 0, 0)    // cosine distance ≈ 1

	if err := c.Set("a", []byte("value-a")); err != nil {
		t.Fatal(err)
	}
	if err := c.ESet("a", vecA); err != nil {
		t.Fatal(err)
	}

	// Exact hit: the key is resident, so the index is never consulted.
	v, near, found, err := c.NGet("a", vecA, 0.5)
	if err != nil || !found || near != nil || string(v) != "value-a" {
		t.Fatalf("exact NGet = %q %v %v %v", v, near, found, err)
	}

	// Near hit: unknown key, nearby embedding.
	v, near, found, err = c.NGet("b", nearA, 0.5)
	if err != nil || !found || near == nil {
		t.Fatalf("near NGet = %q %v %v %v", v, near, found, err)
	}
	if near.Key != "a" || string(v) != "value-a" {
		t.Fatalf("near NGet served %q from %q, want value-a from a", v, near.Key)
	}
	if near.Dist <= 0 || near.Dist > 0.01 {
		t.Fatalf("near dist %v, want (0, 0.01]", near.Dist)
	}

	// Distance cutoff: an orthogonal query finds no neighbor within 0.5.
	if _, near, found, err = c.NGet("b", ortho, 0.5); err != nil || found || near != nil {
		t.Fatalf("orthogonal NGet = %v %v %v, want miss", near, found, err)
	}

	// Evicting a unlinks its embedding: the same near query now misses.
	if err := c.Set("c", []byte("value-c")); err != nil {
		t.Fatal(err)
	}
	if _, near, found, err = c.NGet("b", nearA, 0.5); err != nil || found || near != nil {
		t.Fatalf("NGet after a was evicted = %v %v %v, want miss", near, found, err)
	}
	if live, _ := srv.sem.size(); live != 0 {
		t.Fatalf("semantic index live=%d after a was evicted, want 0", live)
	}
}

// TestNGetEvictionUnlinks: when the store evicts a key, its embedding
// must stop producing NEAR candidates.
func TestNGetEvictionUnlinks(t *testing.T) {
	srv := startServer(t, 1) // capacity 1: every SET evicts the previous key
	c := dial(t, srv)

	vecA := unit(1, 0)
	if err := c.Set("a", []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := c.ESet("a", vecA); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("b", []byte("vb")); err != nil { // evicts a
		t.Fatal(err)
	}
	if _, near, found, err := c.NGet("q", unit(1, 0.01), 0.5); err != nil || found || near != nil {
		t.Fatalf("NGet after eviction = %v %v %v, want miss", near, found, err)
	}
	if live, _ := srv.sem.size(); live != 0 {
		t.Fatalf("semantic index live=%d after eviction, want 0", live)
	}
}

// TestNGetTelemetry: each NGET outcome increments exactly one result
// bucket of kv_semantic_hits_total, and near hits feed kv_semantic_dist.
func TestNGetTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := dial(t, serve(t, storeConfig(64), reg, nil))

	vecA := unit(1, 0)
	if err := c.Set("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.ESet("a", vecA); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.NGet("a", vecA, 0.5); err != nil { // exact
		t.Fatal(err)
	}
	if _, _, _, err := c.NGet("b", unit(1, 0.05), 0.5); err != nil { // near
		t.Fatal(err)
	}
	if _, _, _, err := c.NGet("b", unit(0, 1), 0.5); err != nil { // miss
		t.Fatal(err)
	}

	counters := reg.Snapshot().Counters
	for _, result := range []string{"exact", "near", "miss"} {
		name := fmt.Sprintf("kv_semantic_hits_total{result=%q}", result)
		if counters[name] != 1 {
			t.Errorf("%s = %d, want 1", name, counters[name])
		}
	}
}

// TestNGetPayloadIntactUnderChurn serves NEAR replies while another
// connection overwrites, evicts and re-embeds the keys they are served
// from. Every served payload must be exactly the bytes of the neighbor it
// names, and run with -race this shakes out the interleavings of the
// index (ESET, the evict hook, NGET's lookup) with the store.
func TestNGetPayloadIntactUnderChurn(t *testing.T) {
	// Capacity below the churned key count (48), so the SET traffic both
	// overwrites and evicts under the readers.
	srv := startServer(t, 32)

	payloadFor := func(i int) []byte {
		b := make([]byte, 256)
		for j := range b {
			b[j] = byte('a' + (i+j)%26)
		}
		return b
	}
	vecFor := func(i int) []float32 {
		return unit(1, float32(i%7)*0.01, float32(i%5)*0.01)
	}

	seedClient := dial(t, srv)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("seed:%d", i)
		if err := seedClient.Set(key, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
		if err := seedClient.ESet(key, vecFor(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	c := dial(t, srv)
	go func() { // churn: overwrites and evictions
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			key := fmt.Sprintf("seed:%d", i%48)
			if err := c.Set(key, payloadFor(i%48)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := c.ESet(key, vecFor(i%48)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	reader := dial(t, srv)
	for i := 0; i < 1000; i++ {
		v, near, found, err := reader.NGet("query", vecFor(i%32), 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			continue // everything resident may have churned away
		}
		if near == nil {
			t.Fatal("exact hit for a never-stored key")
		}
		var id int
		if _, err := fmt.Sscanf(near.Key, "seed:%d", &id); err != nil {
			t.Fatalf("unexpected neighbor key %q", near.Key)
		}
		if !bytes.Equal(v, payloadFor(id)) {
			t.Fatalf("torn NEAR payload for %q: got %q", near.Key, v[:16])
		}
	}
	wg.Wait()
}

// clusterVecs returns n unit dim-16 embeddings around 8 centroids (vector i
// in cluster i%8), and the centroids.
func clusterVecs(n int) (vecs, centroids [][]float32) {
	const dim, clusters, sigma = 16, 8, 0.05
	rng := xrand.New(9)
	centroids = make([][]float32, clusters)
	for c := range centroids {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		centroids[c] = unit(v...)
	}
	vecs = make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = centroids[i%clusters][j] + float32(sigma*rng.NormFloat64())
		}
		vecs[i] = unit(v...)
	}
	return vecs, centroids
}

// TestNGetFindsMovedKey: an ESET of a resident key moves its embedding from
// one cluster to another, and the index re-links it only when a read needs
// the graph. The NGET right after it, of an absent key at the new place,
// must be served from the moved key: a search over the links it had in its
// old cluster would not reach it from the new one: a cluster holds twice
// as many keys as an NGET's beam.
func TestNGetFindsMovedKey(t *testing.T) {
	const n = 8 * 2 * semSearchEf
	srv := startServer(t, 2*n)
	c := dial(t, srv)
	vecs, centroids := clusterVecs(n)
	for i, v := range vecs {
		key := fmt.Sprintf("k%d", i)
		if err := c.Set(key, []byte("v-"+key)); err != nil {
			t.Fatal(err)
		}
		if err := c.ESet(key, v); err != nil {
			t.Fatal(err)
		}
	}
	// k1 lives in cluster 1; move it onto cluster 5's centroid.
	to := centroids[5]
	if err := c.ESet("k1", to); err != nil {
		t.Fatal(err)
	}
	v, near, found, err := c.NGet("absent", to, 0.05)
	if err != nil || !found || near == nil {
		t.Fatalf("NGet at the moved key's place = %v %v %v", near, found, err)
	}
	if near.Key != "k1" || string(v) != "v-k1" || near.Dist > 1e-6 {
		t.Fatalf("NGet at the moved key's place served %q from %q at %v, want v-k1 from k1 at 0", v, near.Key, near.Dist)
	}
}

// TestDelOfPendingRelink: the index's delete of a key evicted while its
// last ESET still waits to be re-linked must leave the index as the same
// eviction after a settling read does. METRICS reads the same live and
// free slots and the same links either way.
func TestDelOfPendingRelink(t *testing.T) {
	vecs, centroids := clusterVecs(64)
	history := func(readFirst bool) (live, free, links float64) {
		srv := startServer(t, len(vecs)) // one shard, strict LRU, full
		c := dial(t, srv)
		for i, v := range vecs {
			key := fmt.Sprintf("k%d", i)
			if err := c.Set(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := c.ESet(key, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.ESet("k0", centroids[5]); err != nil { // due a re-link
			t.Fatal(err)
		}
		if readFirst {
			if _, _, _, err := c.NGet("absent", centroids[5], 0.05); err != nil {
				t.Fatal(err)
			}
		}
		// Touch every other key, so k0 is the LRU tail the next SET evicts.
		for i := 1; i < len(vecs); i++ {
			if _, _, err := c.Get(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Set("evictor", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, resident := srv.Peek("k0"); resident {
			t.Fatal("k0 is still resident; it was meant to be evicted")
		}
		text, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for series, dst := range map[string]*float64{
			`kv_semantic_index_points{state="live"}`: &live,
			`kv_semantic_index_points{state="free"}`: &free,
			`kv_semantic_index_links`:                &links,
		} {
			var ok bool
			if *dst, ok = scrapeGauge(text, series); !ok {
				t.Fatalf("METRICS has no %s:\n%s", series, text)
			}
		}
		return live, free, links
	}
	live, free, links := history(false)
	if live != 63 || free != 1 || links == 0 {
		t.Fatalf("after evicting a key due a re-link: live %v, free %v, links %v; want 63, 1, some", live, free, links)
	}
	if l, f, k := history(true); l != live || f != free || k != links {
		t.Fatalf("eviction after a settling read leaves live %v, free %v, links %v; without the read %v, %v, %v", l, f, k, live, free, links)
	}
}

// BenchmarkNGetAfterESets times the NGET that follows N ESETs, each of
// which moves a resident key's embedding to another cluster. The ESETs
// only store their vectors (hnsw defers the re-link), so that NGET first
// settles all N keys, on every core, and then searches: its latency is
// what a read inherits from the writes before it. The query is a centroid,
// which no key holds. Only the NGET is timed.
func BenchmarkNGetAfterESets(b *testing.B) {
	const keys = 4096
	vecs, centroids := clusterVecs(2 * keys)
	for _, n := range []int{1, 16, 256, 1024} {
		b.Run(fmt.Sprintf("esets=%d", n), func(b *testing.B) {
			srv := startServer(b, 2*keys)
			c := dial(b, srv)
			p := c.Pipeline()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("k%d", i)
				p.Set(key, []byte("v"))
				p.ESet(key, vecs[i])
			}
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for range n {
					// Key j alternates between vecs[j], in cluster j%8, and
					// vecs[keys+(j+1)%keys], in the next cluster.
					j, to := next%keys, vecs[next%keys]
					if next/keys%2 == 0 {
						to = vecs[keys+(j+1)%keys]
					}
					p.ESet(fmt.Sprintf("k%d", j), to)
					next++
				}
				if _, err := p.Exec(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, _, err := c.NGet("absent", centroids[i%len(centroids)], 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
