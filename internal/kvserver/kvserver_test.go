package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spidercache/internal/telemetry"
)

// Set stores value under key: the single-op write the tests use. Product
// code writes through a Pipeline (cluster.Client.Set).
func (c *Client) Set(key string, value []byte) error {
	c.one.Set(key, value)
	_, err := c.one.execOne()
	return err
}

// serve starts a server over a store of capacity items on a loopback
// port, closed at cleanup. The store auto-shards (256 items -> 4 shards,
// 512 -> 8).
func serve(t testing.TB, capacity int, reg *telemetry.Registry, hooks ClusterHooks) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, capacity, reg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startServer(t testing.TB, capacity int) *Server {
	t.Helper()
	return serve(t, capacity, nil, nil)
}

func dial(t testing.TB, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// nget is one NGET on a Pipeline, the way every product caller sends it.
func nget(c *Client, key string, emb []float32, threshold float64) (value []byte, near *Near, found bool, err error) {
	p := c.Pipeline()
	p.NGet(key, emb, threshold)
	res, err := p.Exec()
	if err != nil {
		return nil, nil, false, err
	}
	return res[0].Value, res[0].Near, res[0].Found, res[0].Err
}

// eset is one ESET on a Pipeline.
func eset(c *Client, key string, emb []float32) error {
	p := c.Pipeline()
	p.ESet(key, emb)
	res, err := p.Exec()
	if err != nil {
		return err
	}
	return res[0].Err
}

// metrics sends METRICS on c's connection and returns the exposition text.
func metrics(c *Client) (string, error) {
	line, err := c.command("METRICS\r\n")
	if err != nil {
		return "", err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(line, "METRICS "))
	if !strings.HasPrefix(line, "METRICS ") || err != nil {
		return "", fmt.Errorf("bad METRICS header %q", line)
	}
	payload, err := c.readBody(n)
	return string(payload), err
}

// countingConn counts the bytes a client hands to its socket, so a test
// can prove a rejected request never reached the wire.
type countingConn struct {
	net.Conn
	n int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// dialCounting is dial over a countingConn, which it returns beside the
// client.
func dialCounting(t testing.TB, srv *Server) (*Client, *countingConn) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	c := NewClient(cc, 0)
	t.Cleanup(func() { c.Close() })
	return c, cc
}

// TestServeValidation: Serve rejects a capacity below 1 in the words
// spiderkv prints for -capacity and, owning the listener from the call
// on, closes it.
func TestServeValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Serve(ln, 0, nil, nil)
	if want := "kvserver: -capacity must be >= 1, got 0"; err == nil || err.Error() != want {
		t.Fatalf("Serve(capacity 0) = %v, want %q", err, want)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Serve left a rejected listener open")
	}
}

// TestServeAndPoolTakeTheirSettings: Serve shards the store from its
// capacity, and NewPool holds the size it is given, a size below 1 taken
// as 1.
func TestServeAndPoolTakeTheirSettings(t *testing.T) {
	if srv := startServer(t, 512); srv.Shards() != 8 {
		t.Fatalf("server built %d shards from capacity 512, want 8", srv.Shards())
	}
	for _, tc := range []struct{ size, want int }{{7, 7}, {0, 1}} {
		p := NewPool("127.0.0.1:1", tc.size)
		p.Close()
		if cap(p.conns) != tc.want {
			t.Errorf("NewPool(size %d) built size %d", tc.size, cap(p.conns))
		}
	}
}

// TestSetGetDel: a binary payload round-trips through SET and GET, a
// missing key misses, and a DEL, which the protocol does not have, is
// refused without removing anything.
func TestSetGetDel(t *testing.T) {
	srv := startServer(t, 16)
	c := dial(t, srv)

	payload := []byte("sample-bytes \r\n with binary \x00\x01\x02")
	if err := c.Set("img:42", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("img:42")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}

	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("absent key found")
	}
	// DEL is not a verb: only eviction removes a key. The refusal closes
	// the connection and leaves the value in place.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "DEL img:42\r\n")
	if reply, _ := io.ReadAll(conn); string(reply) != "SERVER_ERROR unknown command\r\n" {
		t.Fatalf("DEL reply %q, want SERVER_ERROR unknown command", reply)
	}
	if got, ok, err := c.Get("img:42"); err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after a refused DEL = %q, %v, %v; want the stored value", got, ok, err)
	}
}

func TestEmptyValue(t *testing.T) {
	srv := startServer(t, 4)
	c := dial(t, srv)
	if err := c.Set("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("empty")
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty value roundtrip: %v %v %q", ok, err, got)
	}
}

func TestLRUEvictionOverWire(t *testing.T) {
	srv := startServer(t, 2)
	c := dial(t, srv)
	c.Set("a", []byte("1"))
	c.Set("b", []byte("2"))
	if _, ok, _ := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Set("c", []byte("3")) // evicts b
	if _, ok, _ := c.Get("b"); ok {
		t.Fatal("LRU victim b still present")
	}
	if _, ok, _ := c.Get("a"); !ok {
		t.Fatal("recently used a evicted")
	}
	items, hits, misses := srv.store.stats()
	if items != 2 {
		t.Fatalf("items %d", items)
	}
	if hits < 2 || misses < 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// TestStatsOverWire: the store's item/hit/miss counts reach the wire as
// METRICS' kv_items, kv_hits and kv_misses, equal to the store's own counts.
func TestStatsOverWire(t *testing.T) {
	srv := startServer(t, 8)
	c := dial(t, srv)
	c.Set("k", []byte("v"))
	c.Get("k")
	c.Get("nope")
	text, err := metrics(c)
	if err != nil {
		t.Fatal(err)
	}
	items, hits, misses := srv.store.stats()
	if items != 1 || hits != 1 || misses != 1 {
		t.Fatalf("Stats %d/%d/%d, want 1/1/1", items, hits, misses)
	}
	for name, want := range map[string]float64{"kv_items": float64(items), "kv_hits": float64(hits), "kv_misses": float64(misses)} {
		if got, ok := scrapeGauge(text, name); !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
}

// TestInvalidClientKey: every key-taking verb rejects a key the protocol
// cannot carry before writing a byte — so a key with a line break cannot
// smuggle a second command — and ESET and NGET likewise an embedding the
// server would refuse and close the connection over; the client stays in
// step afterwards.
func TestInvalidClientKey(t *testing.T) {
	srv := startServer(t, 8)
	c, conn := dialCounting(t, srv)
	if err := c.Set("kept", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// rejected fails unless op fails with errBadRequest before writing a
	// byte.
	rejected := func(what string, op func() error) {
		t.Helper()
		before := conn.n
		if err := op(); !errors.Is(err, errBadRequest) {
			t.Errorf("%s = %v, want errBadRequest", what, err)
		}
		if after := conn.n; after != before {
			t.Errorf("%s wrote %d bytes before failing", what, after-before)
		}
	}
	emb := []float32{1, 0}
	verbs := map[string]func(key string) error{
		"Get":  func(k string) error { _, _, err := c.Get(k); return err },
		"Set":  func(k string) error { return c.Set(k, []byte("v")) },
		"NGet": func(k string) error { _, _, _, err := nget(c, k, emb, 0.3); return err },
		"ESet": func(k string) error { return eset(c, k, emb) },
	}
	for name, verb := range verbs {
		for _, key := range []string{"", "has space", "has\nnewline", "a\r\nSET kept 1"} {
			rejected(fmt.Sprintf("%s(%q)", name, key), func() error { return verb(key) })
		}
	}
	// The embeddings a server answers with SERVER_ERROR and a closed
	// connection: a NaN or infinite component, and the zero vector.
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, bad := range [][]float32{{nan, 1}, {inf, 0}, {1, -inf}, {0, 0}} {
		rejected(fmt.Sprintf("ESet(kept, %v)", bad), func() error { return eset(c, "kept", bad) })
		rejected(fmt.Sprintf("NGet(kept, %v)", bad), func() error { _, _, _, err := nget(c, "kept", bad, 0.3); return err })
		// A Set queued before the bad ESet is dropped with it.
		p := c.Pipeline()
		p.Set("kept", []byte("overwritten"))
		p.ESet("kept", bad)
		rejected(fmt.Sprintf("Set+ESet(kept, %v)", bad), func() error { _, err := p.Exec(); return err })
	}
	if v, ok, err := c.Get("kept"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after rejected requests = %q, %v, %v; want the stored value", v, ok, err)
	}
}

// TestProtocolErrors pins every malformed frame to its exact stable
// SERVER_ERROR string — the strings are protocol surface (fuzz corpora and
// clients match on them), so a refactor that changes one is a breaking
// change this test catches.
func TestProtocolErrors(t *testing.T) {
	srv := startServer(t, 8)
	cases := []struct {
		raw  string
		want string
	}{
		{"BOGUS\r\n", "unknown command"},
		{"SET onlykey\r\n", "bad arguments"},
		{"SET k notanumber\r\n", "bad value length"},
		{"SET k -1\r\n", "bad value length"},
		{"SET k 99999999999999999999\r\n", "bad value length"},
		{"GET\r\n", "bad arguments"},
		{"GET a b\r\n", "bad arguments"},
		{"DEL k\r\n", "unknown command"},
		{"RDEL k\r\n", "unknown command"},
		{"RSET k 1\r\n", "unknown command"},
		{"METRICS extra\r\n", "bad arguments"},
		{"MGET a\r\n", "unknown command"},
		{"MSET 1\r\n", "unknown command"},
		{"STATS\r\n", "unknown command"},
		{"SET k 3\r\nabcXY", "bad payload framing"},
		{fmt.Sprintf("SET %s 1\r\nx\r\n", strings.Repeat("k", MaxKeyLen+1)), "key too long"},
		// A line that fills the server's whole read buffer. It is sent
		// unterminated so the server reads every byte before it closes.
		{"GET " + strings.Repeat("k", connBufSize-len("GET ")), "line too long"},
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprint(conn, tc.raw)
		reply, _ := io.ReadAll(conn)
		want := "SERVER_ERROR " + tc.want + "\r\n"
		if string(reply) != want {
			t.Errorf("input %q: reply %q, want %q", tc.raw, reply, want)
		}
		conn.Close()
	}
}

// TestProtocolErrorAfterPipelinedReplies: replies produced before the bad
// frame are delivered, then the stable error, then close.
func TestProtocolErrorAfterPipelinedReplies(t *testing.T) {
	srv := startServer(t, 8)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "SET k 1\r\nv\r\nGET k\r\nBOGUS\r\n")
	reply, _ := io.ReadAll(conn)
	want := "STORED\r\nVALUE 1\r\nv\r\nSERVER_ERROR unknown command\r\n"
	if string(reply) != want {
		t.Fatalf("reply %q, want %q", reply, want)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t, 1024)
	const clients, opsPerClient = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%50)
				val := []byte(fmt.Sprintf("v-%d-%d", g, i))
				if err := c.Set(key, val); err != nil {
					errs <- err
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					errs <- fmt.Errorf("g%d op%d: ok=%v err=%v got=%q", g, i, ok, err, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	items, _, _ := srv.store.stats()
	if items != clients*50 {
		t.Fatalf("items %d, want %d", items, clients*50)
	}
}

func TestUpdateExistingKey(t *testing.T) {
	srv := startServer(t, 4)
	c := dial(t, srv)
	c.Set("k", []byte("v1"))
	c.Set("k", []byte("v2"))
	got, ok, _ := c.Get("k")
	if !ok || string(got) != "v2" {
		t.Fatalf("update lost: %q", got)
	}
	items, _, _ := srv.store.stats()
	if items != 1 {
		t.Fatalf("duplicate key grew store to %d", items)
	}
}

func TestCloseStopsServer(t *testing.T) {
	srv := startServer(t, 4)
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, 0); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

func BenchmarkSetGet(b *testing.B) {
	c := dial(b, startServer(b, 4096))
	payload := bytes.Repeat([]byte("x"), 3<<10) // CIFAR-sized sample
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%2048)
		if err := c.Set(key, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeOneAllocs pins the garbage each request leaves for the
// collector. A request on a resident key leaves none: a GET, a SET that
// overwrites (it reads into the value the last overwrite displaced), an
// ESET, and an NGET, whether it hits, is served a NEAR or misses (its
// search and lookup fill session scratch); a key longer than the 32 bytes
// a string conversion finds room for on the stack changes none of that.
// A SET of a new key leaves its key string and list node, and its value
// too unless the value its eviction dropped has the same length, and an
// ESET of a key that is not resident its key string. The daemon runs the
// runtime's default collector target, so an added allocation on any of
// these paths would show only as more collector cycles and a larger heap.
//
// Under -race, sync.Pool drops a random share of what is put back, so a
// request that takes hnsw's pooled scratch (a search, or the Delete that
// unlinks an ESET of a key that is not resident) sometimes builds a new
// one. Those rows run without -race only; the rest hold in both builds.
func TestServeOneAllocs(t *testing.T) {
	const runs = 1000
	// A full store whose every shard holds more of the preloaded 64-byte
	// values than the new-key rows insert, so each new key evicts one.
	const capacity = 2048
	value := bytes.Repeat([]byte("v"), 64)
	setFrame := func(key string, value []byte) []byte {
		return fmt.Appendf(nil, "SET %s %d\r\n%s\r\n", key, len(value), value)
	}
	repeat := func(frame []byte) []byte { return bytes.Repeat(frame, runs+1) }
	newServer := func() *Server {
		srv := newServerCore(newStore(capacity), telemetry.NewRegistry())
		for i := 0; i < capacity; i++ {
			srv.store.set(fmt.Appendf(nil, "k%d", i), bytes.Clone(value)) // the store owns each value
		}
		return srv
	}
	// The last keys the preload SET are the most recent of their shards,
	// so none of them is evicted; the preload's shards overflow and evict
	// some of the first (see the rows' residency checks).
	resident := []string{"k2040", "k2041", "k2042", "k2043", "k2044", "k2045", "k2046", "k2047"}
	evicted := []string{"k2", "k3", "k4", "k5"}
	long := "k" + strings.Repeat("x", 63) // 64 bytes, SET by the rows that use it
	setLong := setFrame(long, value)
	axis := func(i int) []float32 {
		emb := make([]float32, 16)
		emb[i] = 1
		return emb
	}
	esetStream := func(keys []string) []byte {
		var b []byte
		for i := 0; i <= runs; i++ {
			emb := make([]float32, 16)
			emb[i%16], emb[(i+1)%16] = 1, float32(i%7)
			b = fmt.Appendf(b, "ESET %s %d\r\n", keys[i%len(keys)], len(emb))
			b = append(b, embedPayload(emb)...)
		}
		return b
	}
	// Indexes each resident key on an axis of its own, for the NGET rows.
	indexing := bytes.Clone(setLong)
	for i, k := range resident {
		indexing = fmt.Appendf(indexing, "ESET %s 16\r\n", k)
		indexing = append(indexing, embedPayload(axis(i))...)
	}
	ngetFrame := func(key string, emb []float32) []byte {
		return append(fmt.Appendf(nil, "NGET %s 0.3 %d\r\n", key, len(emb)), embedPayload(emb)...)
	}
	nearAxis0 := axis(0) // cosine distance 0.005 from resident[0]'s
	nearAxis0[1] = 0.1
	var newKeys, newKeysOtherLen []byte
	for i := 0; i <= runs; i++ {
		newKeys = append(newKeys, setFrame(fmt.Sprintf("new%d", i), value)...)
		newKeysOtherLen = append(newKeysOtherLen, setFrame(fmt.Sprintf("new%d", i), value[:32])...)
	}
	for _, tc := range []struct {
		name     string
		setup    []byte   // requests served before the count
		resident []string // keys the row needs resident
		evicted  []string // keys the row needs evicted
		stream   []byte
		want     float64
		pooled   bool                // reaches hnsw's pooled scratch: runs without -race only
		outcome  func(*Server) int64 // counts the requests answered as the row names
	}{
		{name: "GET hit", stream: repeat([]byte("GET k1\r\n")), want: 0},
		{name: "GET miss", stream: repeat([]byte("GET absent\r\n")), want: 0},
		{name: "SET new key, victim of its length", stream: newKeys, want: 2},
		{name: "SET new key, victim of another length", stream: newKeysOtherLen, want: 3},
		{name: "SET overwrite", stream: repeat(setFrame("k1", value)), want: 0},
		{name: "ESET resident key", resident: resident, stream: esetStream(resident), want: 0},
		{name: "ESET resident key, 64-byte key", setup: setLong, resident: []string{long},
			stream: esetStream([]string{long}), want: 0},
		{name: "ESET evicted key", evicted: evicted, stream: esetStream(evicted), want: 1, pooled: true},
		{name: "NGET exact hit", setup: indexing, stream: repeat(ngetFrame(resident[0], axis(0))), want: 0,
			outcome: func(s *Server) int64 { return s.tel.semExact.Value() }},
		{name: "NGET exact hit, 64-byte key", setup: indexing, resident: []string{long},
			stream: repeat(ngetFrame(long, axis(0))), want: 0,
			outcome: func(s *Server) int64 { return s.tel.semExact.Value() }},
		{name: "NGET NEAR", setup: indexing, stream: repeat(ngetFrame("absent", nearAxis0)), want: 0, pooled: true,
			outcome: func(s *Server) int64 { return s.tel.semNear.Value() }},
		{name: "NGET semantic miss", setup: indexing, stream: repeat(ngetFrame("absent", axis(15))), want: 0, pooled: true,
			outcome: func(s *Server) int64 { return s.tel.semMiss.Value() }},
	} {
		if tc.pooled && raceBuild() {
			continue
		}
		srv := newServer()
		sess := newSession(bufio.NewReader(bytes.NewReader(tc.setup)), bufio.NewWriter(io.Discard))
		for {
			if err := srv.serveOne(sess); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range tc.resident {
			if !srv.store.has([]byte(k)) {
				t.Fatalf("%s: key %s is not resident after the preload", tc.name, k)
			}
		}
		for _, k := range tc.evicted {
			if srv.store.has([]byte(k)) {
				t.Fatalf("%s: key %s is resident after the preload", tc.name, k)
			}
		}
		// One serveOne call per request, on an in-process session; the
		// stream holds runs+1 requests, AllocsPerRun's warm-up included.
		sess = newSession(bufio.NewReaderSize(bytes.NewReader(tc.stream), connBufSize),
			bufio.NewWriterSize(io.Discard, connBufSize))
		got := testing.AllocsPerRun(runs, func() {
			if err := srv.serveOne(sess); err != nil {
				t.Fatal(err)
			}
		})
		if tc.outcome != nil && tc.outcome(srv) != runs+1 {
			t.Errorf("%s: %d of %d requests answered as named", tc.name, tc.outcome(srv), runs+1)
		}
		if got != tc.want {
			t.Errorf("%s: %v allocs per request, want %v", tc.name, got, tc.want)
		}
	}
}
