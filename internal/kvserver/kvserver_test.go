package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"spidercache/internal/telemetry"
)

// storeConfig is DefaultConfig with the given store size; the store
// auto-shards it (256 items -> 4 shards, 512 -> 8).
func storeConfig(capacity int) Config {
	cfg := DefaultConfig()
	cfg.Capacity = capacity
	return cfg
}

// serve starts a server on a loopback port, closed at cleanup.
func serve(t testing.TB, cfg Config, reg *telemetry.Registry, hooks ClusterHooks) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, cfg, reg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startServer(t testing.TB, capacity int) *Server {
	t.Helper()
	return serve(t, storeConfig(capacity), nil, nil)
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

// TestServeValidation: Serve rejects an invalid Config and, owning the
// listener from the call on, closes it.
func TestServeValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Serve(ln, storeConfig(0), nil, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Serve left a rejected listener open")
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
	items, hits, misses := srv.Stats()
	if items != 2 {
		t.Fatalf("items %d", items)
	}
	if hits < 2 || misses < 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// TestStatsOverWire: the store's item/hit/miss counts reach the wire as
// METRICS' kv_items, kv_hits and kv_misses, equal to Server.Stats.
func TestStatsOverWire(t *testing.T) {
	srv := startServer(t, 8)
	c := dial(t, srv)
	c.Set("k", []byte("v"))
	c.Get("k")
	c.Get("nope")
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	items, hits, misses := srv.Stats()
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
// smuggle a second command — and the client stays in step afterwards.
func TestInvalidClientKey(t *testing.T) {
	srv := startServer(t, 8)
	c, conn := dialCounting(t, srv)
	if err := c.Set("kept", []byte("v")); err != nil {
		t.Fatal(err)
	}
	emb := []float32{1, 0}
	verbs := map[string]func(key string) error{
		"Get":  func(k string) error { _, _, err := c.Get(k); return err },
		"Set":  func(k string) error { return c.Set(k, []byte("v")) },
		"RSet": func(k string) error { return c.RSet(k, []byte("v")) },
		"NGet": func(k string) error { _, _, _, err := c.NGet(k, emb, 0.3); return err },
		"ESet": func(k string) error { return c.ESet(k, emb) },
	}
	for name, verb := range verbs {
		for _, key := range []string{"", "has space", "has\nnewline", "a\r\nSET kept 1"} {
			before := conn.n
			if err := verb(key); !errors.Is(err, errBadRequest) {
				t.Errorf("%s(%q) = %v, want errBadRequest", name, key, err)
			}
			if after := conn.n; after != before {
				t.Errorf("%s(%q) wrote %d bytes before failing", name, key, after-before)
			}
		}
	}
	if v, ok, err := c.Get("kept"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after rejected keys = %q, %v, %v; want the stored value", v, ok, err)
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
	items, _, _ := srv.Stats()
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
	items, _, _ := srv.Stats()
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
