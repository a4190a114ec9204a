package kvserver

import (
	"bufio"
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	"spidercache/internal/telemetry"
)

// FuzzServeOne drives the protocol handler with arbitrary bytes: the server
// must never panic regardless of input, and every error must map to a
// stable protocol string (one of protoErrs) or be an I/O error. Only the
// connection loop writes SERVER_ERROR, so a handler's own replies never
// hold it unless the input does (a stored value echoed back). The seed
// corpus covers each command, pipelined multi-command streams and common
// malformations.
func FuzzServeOne(f *testing.F) {
	f.Add([]byte("GET k\r\n"))
	f.Add([]byte("SET k 3\r\nabc\r\n"))
	f.Add([]byte("SET k 3\r\nabcXX"))
	f.Add([]byte("METRICS\r\n"))
	f.Add([]byte("QUIT\r\n"))
	// Deleted verbs: unknown command.
	f.Add([]byte("DEL k\r\n"))
	f.Add([]byte("MGET a b\r\n"))
	f.Add([]byte("MSET 1\r\na 1\r\nx\r\n"))
	f.Add([]byte("STATS\r\n"))
	// Cluster verbs.
	f.Add([]byte("HELLO 127.0.0.1:1\r\n"))
	f.Add([]byte("HELLO " + strings.Repeat("a", 300) + "\r\n")) // bad node address
	f.Add([]byte("NODES\r\n"))
	f.Add([]byte("RSET k 1\r\nv\r\nRDEL k\r\n")) // RDEL is deleted too
	f.Add([]byte("SET k 99999999999999999999\r\n"))
	f.Add([]byte("\r\n"))
	f.Add([]byte{0, 1, 2, '\n'})
	// Pipelined multi-command streams.
	f.Add([]byte("GET a\r\nGET b\r\nGET c\r\n"))
	f.Add([]byte("SET a 1\r\nx\r\nSET b 1\r\ny\r\n"))
	f.Add([]byte("SET a 1\r\nx\r\nSET b 1\r\n"))                 // truncated payload frame
	f.Add([]byte("SET k 1\r\nv\r\nGET k\r\nDEL k\r\nGET k\r\n")) // unknown mid-pipeline
	f.Add([]byte("SET a 1\r\nz\r\nGET a\r\nGET b\r\nMETRICS\r\n"))
	f.Add([]byte("GET a\r\nGET b\r\nGET c\r\nQUIT\r\nGET d\r\n"))
	f.Add([]byte("SET k 2\r\nvvXXGET k\r\n")) // bad framing mid-pipeline
	// Semantic verbs. "\x00\x00\x80?" is float32(1.0) little-endian.
	f.Add([]byte("ESET k 2\r\n\x00\x00\x80?\x00\x00\x80?\r\n"))
	f.Add([]byte("NGET k 0.5 2\r\n\x00\x00\x80?\x00\x00\x80?\r\n"))
	f.Add([]byte("ESET k 2\r\n\x00\x00\x80?\x00\x00\x80?\r\nNGET k 0 2\r\n\x00\x00\x80?\x00\x00\x80?\r\n"))
	f.Add([]byte("NGET k nan 2\r\n\x00\x00\x80?\x00\x00\x80?\r\n"))   // bad threshold
	f.Add([]byte("NGET k -1 2\r\n\x00\x00\x80?\x00\x00\x80?\r\n"))    // negative threshold
	f.Add([]byte("ESET k 0\r\n\r\n"))                                 // zero dim
	f.Add([]byte("ESET k 99999\r\n"))                                 // over MaxEmbedDim
	f.Add([]byte("ESET k 2\r\n\x00\x00\x80?\r\n"))                    // truncated payload
	f.Add([]byte("ESET k 2\r\n\x00\x00\x00\x00\x00\x00\x00\x00\r\n")) // zero vector
	f.Fuzz(func(t *testing.T, input []byte) {
		reg := telemetry.NewRegistry()
		srv := newServerCore(newStore(8), reg)
		r := bufio.NewReader(bytes.NewReader(input))
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		sess := newSession(r, w)
		// Serve until the handler reports an error (EOF, protocol error,
		// quit); each call must return rather than panic, and protocol
		// errors must carry one of the stable strings.
		for i := 0; i < 16; i++ {
			err := srv.serveOne(sess)
			if err == nil {
				continue
			}
			if pe, ok := err.(protoErr); ok && !slices.Contains(protoErrs, pe) {
				t.Fatalf("unstable protocol error %q for input %q", pe, input)
			}
			break
		}
		w.Flush()
		if bytes.Contains(out.Bytes(), []byte("SERVER_ERROR")) && !bytes.Contains(input, []byte("SERVER_ERROR")) {
			t.Fatalf("a handler wrote its own SERVER_ERROR for input %q: %q", input, out.Bytes())
		}
	})
}

// TestProtoErrVocabulary: every wire error is a distinct string of
// lowercase words, which survives framing and matching in every client.
func TestProtoErrVocabulary(t *testing.T) {
	stable := regexp.MustCompile(`^[a-z][a-z0-9 -]*$`)
	seen := map[protoErr]bool{}
	for _, pe := range protoErrs {
		if !stable.MatchString(string(pe)) {
			t.Errorf("protocol error %q is not lowercase words (%s)", pe, stable)
		}
		if seen[pe] {
			t.Errorf("protocol error %q is listed twice", pe)
		}
		seen[pe] = true
	}
}

// FuzzClientRoundTrip fuzzes the key/value space end to end over a real
// connection: anything the client accepts must round-trip byte-identically
// through SET/GET, alone and in a pipeline beside a miss.
func FuzzClientRoundTrip(f *testing.F) {
	f.Add("k", []byte("v"))
	f.Add("a:b:c", []byte{})
	f.Add(strings.Repeat("k", MaxKeyLen), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, key string, value []byte) {
		c := dial(t, startServer(t, 8))
		if err := c.Set(key, value); err != nil {
			// The client rejects invalid keys locally; that is fine.
			if validKey(key) != nil {
				return
			}
			t.Fatalf("Set(%q): %v", key, err)
		}
		got, ok, err := c.Get(key)
		if err != nil || !ok || !bytes.Equal(got, value) {
			t.Fatalf("Get(%q): ok=%v err=%v got=%q want=%q", key, ok, err, got, value)
		}
		const absent = "\x01never-set"
		p := c.Pipeline()
		p.Get(key)
		p.Get(absent)
		rs, err := p.Exec()
		if err != nil || !rs[0].Found || !bytes.Equal(rs[0].Value, value) {
			t.Fatalf("pipelined Get(%q): results=%+v err=%v", key, rs, err)
		}
		if key != absent && rs[1].Found {
			t.Fatalf("pipelined Get: absent key reported found")
		}
	})
}
