package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

	if items, hits, misses := srv.Stats(); items != 3 || hits != 3 || misses != 1 {
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
