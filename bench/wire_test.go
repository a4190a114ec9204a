package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

const replyStream = "VALUE 5\r\nab\r\nc\r\n" +
	"NOT_FOUND\r\n" +
	"STORED\r\n" +
	"NEAR key:17 0.034500 3\r\nxyz\r\n" +
	"SERVER_ERROR bad value length\r\n" +
	"NODES 2\r\n127.0.0.1:1\r\n127.0.0.1:2\r\n" +
	"METRICS 9\r\nkv_hits 1\r\n" +
	"VALUE 0\r\n\r\n"

func checkStream(t *testing.T, r io.Reader) {
	t.Helper()
	rr := newReplyReader(r)
	next := func() reply {
		t.Helper()
		rep, err := rr.read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return rep
	}
	if rep := next(); rep.Kind != replyValue || string(rep.Body) != "ab\r\nc" {
		t.Errorf("VALUE with CRLF inside its payload: %+v", rep)
	}
	if rep := next(); rep.Kind != replyNotFound {
		t.Errorf("NOT_FOUND: %+v", rep)
	}
	if rep := next(); rep.Kind != replyStored {
		t.Errorf("STORED: %+v", rep)
	}
	if rep := next(); rep.Kind != replyNear || rep.NearKey != "key:17" || rep.NearDist != 0.0345 || string(rep.Body) != "xyz" {
		t.Errorf("NEAR: %+v", rep)
	}
	if rep := next(); rep.Kind != replyServerError || rep.Message != "bad value length" {
		t.Errorf("SERVER_ERROR: %+v", rep)
	}
	if rep := next(); rep.Kind != replyNodes || len(rep.Nodes) != 2 || rep.Nodes[1] != "127.0.0.1:2" {
		t.Errorf("NODES: %+v", rep)
	}
	if rep := next(); rep.Kind != replyMetrics || string(rep.Body) != "kv_hits 1" {
		t.Errorf("METRICS: %+v", rep)
	}
	if rep := next(); rep.Kind != replyValue || len(rep.Body) != 0 {
		t.Errorf("empty VALUE: %+v", rep)
	}
	if _, err := rr.read(); !errors.Is(err, io.EOF) {
		t.Errorf("after the stream: %v, want EOF", err)
	}
}

func TestReplyParser(t *testing.T) {
	checkStream(t, strings.NewReader(replyStream))
}

// The same stream arriving one byte per read: replies torn anywhere.
func TestReplyParserTornReads(t *testing.T) {
	checkStream(t, iotest.OneByteReader(strings.NewReader(replyStream)))
}

// A payload larger than the reader's buffer refills it while the header
// line is still being used.
func TestReplyParserLargePayload(t *testing.T) {
	big := strings.Repeat("x", 200<<10)
	rr := newReplyReader(strings.NewReader("METRICS 204800\r\n" + big + "\r\nNEAR key:1 0.100000 204800\r\n" + big + "\r\n"))
	if rep, err := rr.read(); err != nil || rep.Kind != replyMetrics || len(rep.Body) != len(big) {
		t.Fatalf("large METRICS: kind %d, %d bytes, %v", rep.Kind, len(rep.Body), err)
	}
	if rep, err := rr.read(); err != nil || rep.Kind != replyNear || rep.NearKey != "key:1" || len(rep.Body) != len(big) {
		t.Fatalf("large NEAR: %+v, %v", rep.Kind, err)
	}
}

func TestReplyParserRejects(t *testing.T) {
	for _, in := range []string{
		"VALUE x\r\n", "VALUE 3\r\nabcd\r\n", "VALUE 3\r\nab", "NEAR k 0.1\r\n", "NEAR k zz 1\r\na\r\n",
		"HELLO\r\n", "STORED\n", "NODES -1\r\n", "VALUE -1\r\n",
	} {
		if rep, err := newReplyReader(strings.NewReader(in)).read(); err == nil {
			t.Errorf("%q parsed as %+v", in, rep)
		}
	}
}

func TestFraming(t *testing.T) {
	emb := []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0}
	for _, tc := range []struct{ got, want string }{
		{string(appendGet(nil, []byte("key:1"))), "GET key:1\r\n"},
		{string(appendSetHeader(nil, []byte("key:1"), 3072)), "SET key:1 3072\r\n"},
		{string(appendNGet(nil, []byte("key:1"), "0.3", emb)), "NGET key:1 0.3 2\r\n" + string(emb) + "\r\n"},
		{string(appendESet(nil, []byte("key:1"), emb)), "ESET key:1 2\r\n" + string(emb) + "\r\n"},
	} {
		if tc.got != tc.want {
			t.Errorf("framed %q, want %q", tc.got, tc.want)
		}
	}
}
