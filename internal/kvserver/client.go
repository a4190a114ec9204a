package kvserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"time"
)

// errBadRequest tags client-side validation failures (invalid key, node
// address, embedding or threshold): the request never formed, so no byte
// of it reached the socket.
var errBadRequest = errors.New("kvserver: bad request")

// Client is a connection to a kvserver. It is not safe for concurrent use;
// open one client per goroutine (the server handles each connection
// independently), or share connections through a Pool.
//
// Every keyed request goes through the pipeline code: a single Get or Set
// is a pipeline of one on a Pipeline the client owns and reuses, so
// each verb has exactly one frame writer (which validates before writing a
// byte) and each reply shape one reader. NGET, ESET and METRICS have no
// single-op method: callers batch them on a Pipeline.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	timeout time.Duration
	one     Pipeline
}

// Dial connects to a kvserver at addr. timeout bounds the connect and,
// afterwards, each request flush and each reply read; zero means no
// timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, timeout), nil
}

// NewClient wraps an already-established connection — a net.Pipe end, a
// faultnet-wrapped conn, a TLS session — in a Client with Dial's per-flush
// and per-read timeout. The Client owns conn and closes it on Close.
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	c := &Client{
		conn:    conn,
		r:       bufio.NewReaderSize(conn, connBufSize),
		w:       bufio.NewWriterSize(conn, connBufSize),
		timeout: timeout,
	}
	c.one.c = c
	return c
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	c.w.WriteString("QUIT\r\n")
	//lint:ignore errcheck QUIT is a best-effort courtesy; Close reports the real failure
	c.flush()
	return c.conn.Close()
}

// flush arms the write deadline (if configured) and flushes the request
// buffer.
func (c *Client) flush() error {
	if c.timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	return c.w.Flush()
}

// armRead arms the read deadline (if configured) before a reply read.
func (c *Client) armRead() error {
	if c.timeout > 0 {
		return c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	return nil
}

// readLine reads a \r\n- (or \n-) terminated reply line without the
// terminator.
func (c *Client) readLine() (string, error) {
	if err := c.armRead(); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// readFull fills buf from the reply stream.
func (c *Client) readFull(buf []byte) error {
	if err := c.armRead(); err != nil {
		return err
	}
	_, err := io.ReadFull(c.r, buf)
	return err
}

// validKey rejects keys the wire protocol cannot carry — in particular any
// space or line break, which would let a key smuggle a second command.
func validKey(key string) error {
	if key == "" || len(key) > MaxKeyLen || strings.ContainsAny(key, " \r\n") {
		return fmt.Errorf("%w: invalid key %q", errBadRequest, key)
	}
	return nil
}

// validEmbedding rejects the embeddings a server refuses (readEmbedding):
// a dimension out of range, a NaN or infinite component, and the zero
// vector, which has no direction to measure a cosine distance from.
func validEmbedding(emb []float32) error {
	if len(emb) < 1 || len(emb) > MaxEmbedDim {
		return fmt.Errorf("%w: embedding dim %d (want 1..%d)", errBadRequest, len(emb), MaxEmbedDim)
	}
	var norm float64 // summed as readEmbedding sums it: NaN or +Inf when a component is
	for _, f := range emb {
		norm += float64(f) * float64(f)
	}
	if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return fmt.Errorf("%w: embedding of squared norm %v (want finite, non-zero)", errBadRequest, norm)
	}
	return nil
}

// Near identifies the substitute behind a semantic (NEAR) hit: which
// resident neighbor's value was served and how far its embedding sits
// from the query, in cosine distance.
type Near struct {
	Key  string
	Dist float64
}

// Get fetches the value under key; ok is false on a miss.
func (c *Client) Get(key string) (value []byte, ok bool, err error) {
	c.one.Get(key)
	r, err := c.one.execOne()
	return r.Value, r.Found, err
}

// command sends one argument-free request line and returns the first reply
// line.
func (c *Client) command(req string) (string, error) {
	if _, err := c.w.WriteString(req); err != nil {
		return "", err
	}
	if err := c.flush(); err != nil {
		return "", err
	}
	return c.readLine()
}
