package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

func TestPipelineMixedOps(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv)

	p := c.Pipeline()
	p.Set("a", []byte("1"))
	p.Set("b", []byte("2"))
	p.Get("a")
	p.Get("missing")
	p.Get("b")
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !bytes.Equal(results[2].Value, []byte("1")) || !results[2].Found {
		t.Fatalf("Get a: %+v", results[2])
	}
	if results[3].Found {
		t.Fatal("missing key found")
	}
	if !bytes.Equal(results[4].Value, []byte("2")) || !results[4].Found {
		t.Fatalf("Get b: %+v", results[4])
	}
	// Pipeline is reusable after Exec.
	p.Get("a")
	results, err = p.Exec()
	if err != nil || len(results) != 1 || !results[0].Found {
		t.Fatalf("reuse: %v %+v", err, results)
	}
}

func TestPipelineEmptyExec(t *testing.T) {
	srv := startServer(t, 4)
	c := dial(t, srv)
	results, err := c.Pipeline().Exec()
	if err != nil || results != nil {
		t.Fatalf("empty Exec: %v %v", err, results)
	}
}

// TestPipelineSendThenRecv: Send puts a pipeline on the wire without
// waiting, so two servers each hold a request before either reply is read,
// and a later Recv collects each; a Send that fails validation reports it
// and leaves nothing for Recv.
func TestPipelineSendThenRecv(t *testing.T) {
	a, b := dial(t, startServer(t, 8)), dial(t, startServer(t, 8))
	pa, pb := a.Pipeline(), b.Pipeline()
	pa.Set("k", []byte("a"))
	pb.Set("k", []byte("b"))
	pb.Get("k")
	for _, p := range []*Pipeline{pa, pb} {
		if err := p.Send(); err != nil {
			t.Fatal(err)
		}
	}
	ra, err := pa.Recv()
	if err != nil || len(ra) != 1 || ra[0].Err != nil {
		t.Fatalf("Recv a = %+v, %v", ra, err)
	}
	rb, err := pb.Recv()
	if err != nil || len(rb) != 2 || rb[0].Err != nil || string(rb[1].Value) != "b" {
		t.Fatalf("Recv b = %+v, %v", rb, err)
	}
	if v, ok, err := a.Get("k"); err != nil || !ok || string(v) != "a" {
		t.Fatalf("Get a = %q, %v, %v", v, ok, err)
	}

	pa.Set("bad key", []byte("x"))
	if err := pa.Send(); !errors.Is(err, errBadRequest) {
		t.Fatalf("Send of a bad key = %v, want errBadRequest", err)
	}
	if res, err := pa.Recv(); err != nil || res != nil || pa.Len() != 0 {
		t.Fatalf("Recv after a failed Send = %+v, %v, Len %d", res, err, pa.Len())
	}
}

func TestPipelineInvalidKeyAborts(t *testing.T) {
	srv := startServer(t, 4)
	c, conn := dialCounting(t, srv)
	p := c.Pipeline()
	p.Set("ok", []byte("v"))
	p.Get("has space")
	p.Get("ok")
	if _, err := p.Exec(); !errors.Is(err, errBadRequest) {
		t.Fatalf("invalid queued key: Exec = %v, want errBadRequest", err)
	}
	// Nothing of the aborted pipeline was sent, not even the valid Set
	// queued before the bad key, so the client is still in step.
	if conn.n != 0 {
		t.Fatalf("aborted pipeline wrote %d bytes", conn.n)
	}
	if _, found, err := c.Get("ok"); err != nil || found {
		t.Fatalf("Get after aborted pipeline = %v, %v; want a clean miss", found, err)
	}
}

func TestPipelineDeep(t *testing.T) {
	srv := startServer(t, 2048)
	c := dial(t, srv)
	const n = 500
	payload := bytes.Repeat([]byte("x"), 1024)
	p := c.Pipeline()
	for i := 0; i < n; i++ {
		p.Set(fmt.Sprintf("k%d", i), payload)
	}
	results, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
	}
	for i := 0; i < n; i++ {
		p.Get(fmt.Sprintf("k%d", i))
	}
	results, err = p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Found || !bytes.Equal(r.Value, payload) {
			t.Fatalf("get %d: found=%v", i, r.Found)
		}
	}
}

// TestPipelineRoundTrip: payloads that look like protocol (CRLF inside,
// empty) survive a pipelined round trip byte for byte, a miss amid hits
// keeps its slot, and every pipelined op counts in the store's stats.
func TestPipelineRoundTrip(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv)

	keys := []string{"x", "y", "z"}
	values := [][]byte{[]byte("1"), {}, []byte("three\r\nwith crlf")}
	p := c.Pipeline()
	for i, k := range keys {
		p.Set(k, values[i])
	}
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"x", "absent", "y", "z"} {
		p.Get(k)
	}
	got, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	wantFound := []bool{true, false, true, true}
	wantVals := [][]byte{values[0], nil, values[1], values[2]}
	for i := range wantFound {
		if got[i].Found != wantFound[i] {
			t.Fatalf("found[%d]=%v want %v", i, got[i].Found, wantFound[i])
		}
		if !bytes.Equal(got[i].Value, wantVals[i]) {
			t.Fatalf("got[%d]=%q want %q", i, got[i].Value, wantVals[i])
		}
	}

	if items, hits, misses := srv.store.stats(); items != 3 || hits != 3 || misses != 1 {
		t.Fatalf("stats %d/%d/%d, want 3/3/1", items, hits, misses)
	}
}

// TestRawPipelinedStream pushes a hand-built multi-command byte stream in
// one write and checks the replies arrive in order — the wire-level
// contract the Pipeline type builds on.
func TestRawPipelinedStream(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv)
	// Use the underlying conn directly.
	raw := "SET a 1\r\nx\r\nSET b 1\r\ny\r\nGET a\r\nGET b\r\nGET c\r\nGET a\r\n"
	if _, err := c.conn.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	want := "STORED\r\nSTORED\r\nVALUE 1\r\nx\r\nVALUE 1\r\ny\r\nNOT_FOUND\r\nVALUE 1\r\nx\r\n"
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(c.conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != want {
		t.Fatalf("pipelined replies:\n got %q\nwant %q", buf, want)
	}
}

// misframingServer is a fake node on a loopback port. On its first
// connection it reads lines request lines and answers them all with
// reply, whatever they asked; after that, and on every later connection,
// each GET is a NOT_FOUND.
func misframingServer(t *testing.T, lines int, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		canned := lines // the request line the canned reply answers; 0 = none
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn, canned int) {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				for n := 1; ; n++ {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					switch {
					case n == canned:
						io.WriteString(conn, reply)
					case n > canned && strings.HasPrefix(line, "GET "):
						io.WriteString(conn, "NOT_FOUND\r\n")
					}
				}
			}(conn, canned)
			canned = 0
		}
	}()
	return ln.Addr().String()
}

// TestMisframedReplyAbortsPipeline: a reply the client cannot frame — a
// payload without its CRLF, a VALUE or NEAR header it cannot parse —
// leaves the rest of the stream out of step, so it aborts the whole
// pipeline as a transport error and the pool discards the connection.
// Read per op instead, each later reply lands on the wrong op: here the
// stray "VALUE 1\r\nb\r\n" would answer the next Get("c") with "b".
func TestMisframedReplyAbortsPipeline(t *testing.T) {
	one := []float32{1}
	for _, tc := range []struct {
		name  string
		lines int // request lines of the two queued ops
		queue func(p *Pipeline)
		reply string
	}{
		{"payload not CRLF-terminated", 2, func(p *Pipeline) { p.Get("a"); p.Get("b") },
			"VALUE 3\r\nxyzzy\r\nVALUE 1\r\nb\r\n"},
		{"bad VALUE header", 2, func(p *Pipeline) { p.Get("a"); p.Get("b") },
			"VALUE 3x\r\nxyz\r\nVALUE 1\r\nb\r\n"},
		{"bad NEAR header", 4, func(p *Pipeline) { p.NGet("a", one, 0.5); p.NGet("b", one, 0.5) },
			"NEAR a 0.1\r\nxyz\r\nVALUE 1\r\nb\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool(misframingServer(t, tc.lines, tc.reply), 1)
			defer pool.Close()
			err := pool.Do(func(c *Client) error {
				p := c.Pipeline()
				tc.queue(p)
				res, err := p.Exec()
				if err == nil {
					t.Errorf("Exec = %+v, nil error; want the misframed reply to abort it", res)
				}
				return err
			})
			if !errors.Is(err, errOutOfStep) || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("Do = %v; want an out-of-step %q error", err, tc.name)
			}
			err = pool.Do(func(c *Client) error {
				v, found, err := c.Get("c")
				if found {
					t.Errorf("Get(c) after the misframed reply = %q, found; want NOT_FOUND from a fresh connection", v)
				}
				return err
			})
			if err != nil {
				t.Errorf("Get(c): %v", err)
			}
		})
	}
}
