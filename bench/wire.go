package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The benchmark speaks spiderkv's text protocol itself (the table in
// internal/kvserver/server.go) so that the single-node workloads measure
// the server and nothing of the client library.

type replyKind uint8

const (
	replyValue replyKind = iota + 1
	replyNear
	replyNotFound
	replyStored
	replyServerError
	replyMetrics
	replyNodes
)

// reply is one parsed server reply. Body aliases the reader's scratch
// buffer and is valid until the next readReply on the same replyReader.
type reply struct {
	Kind     replyKind
	Body     []byte   // VALUE, NEAR and METRICS payload
	NearKey  string   // NEAR: the key that stood in
	NearDist float64  // NEAR: reported cosine distance
	Message  string   // SERVER_ERROR text
	Nodes    []string // NODES member list
}

var errBadReply = errors.New("malformed reply")

// replyReader parses replies off one connection, reusing one body buffer.
type replyReader struct {
	r    *bufio.Reader
	body []byte
}

func newReplyReader(r io.Reader) *replyReader {
	return &replyReader{r: bufio.NewReaderSize(r, 64<<10)}
}

func (rr *replyReader) line() ([]byte, error) {
	line, err := rr.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line %q lacks CRLF", errBadReply, line)
	}
	return line[:len(line)-2], nil
}

// payload reads n body bytes and the CRLF behind them.
func (rr *replyReader) payload(n int) ([]byte, error) {
	if n < 0 || n > 64<<20 {
		return nil, fmt.Errorf("%w: payload length %d", errBadReply, n)
	}
	if cap(rr.body) < n+2 {
		rr.body = make([]byte, n+2)
	}
	buf := rr.body[:n+2]
	if _, err := io.ReadFull(rr.r, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: payload of %d bytes lacks CRLF", errBadReply, n)
	}
	return buf[:n], nil
}

func (rr *replyReader) read() (reply, error) {
	line, err := rr.line()
	if err != nil {
		return reply{}, err
	}
	verb, rest, _ := bytes.Cut(line, []byte(" "))
	switch string(verb) {
	case "NOT_FOUND":
		return reply{Kind: replyNotFound}, nil
	case "STORED":
		return reply{Kind: replyStored}, nil
	case "SERVER_ERROR":
		return reply{Kind: replyServerError, Message: string(rest)}, nil
	case "VALUE", "METRICS":
		n, err := strconv.Atoi(string(rest))
		if err != nil {
			return reply{}, fmt.Errorf("%w: %q", errBadReply, line)
		}
		// line aliases the reader's buffer, which payload may refill.
		kind := replyValue
		if verb[0] == 'M' {
			kind = replyMetrics
		}
		body, err := rr.payload(n)
		if err != nil {
			return reply{}, err
		}
		return reply{Kind: kind, Body: body}, nil
	case "NEAR":
		f := bytes.Fields(rest)
		if len(f) != 3 {
			return reply{}, fmt.Errorf("%w: %q", errBadReply, line)
		}
		key := string(f[0])
		dist, err1 := strconv.ParseFloat(string(f[1]), 64)
		n, err2 := strconv.Atoi(string(f[2]))
		if err1 != nil || err2 != nil {
			return reply{}, fmt.Errorf("%w: %q", errBadReply, line)
		}
		body, err := rr.payload(n)
		if err != nil {
			return reply{}, err
		}
		return reply{Kind: replyNear, Body: body, NearKey: key, NearDist: dist}, nil
	case "NODES":
		n, err := strconv.Atoi(string(rest))
		if err != nil || n < 0 || n > 1<<16 {
			return reply{}, fmt.Errorf("%w: %q", errBadReply, line)
		}
		nodes := make([]string, n)
		for i := range nodes {
			l, err := rr.line()
			if err != nil {
				return reply{}, err
			}
			nodes[i] = string(l)
		}
		return reply{Kind: replyNodes, Nodes: nodes}, nil
	}
	return reply{}, fmt.Errorf("%w: %q", errBadReply, line)
}

// Request framing. Each helper appends one whole frame, so a frame is
// never split across flushes (the server's pipelining contract).

func appendGet(dst, key []byte) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, key...)
	return append(dst, '\r', '\n')
}

// appendSetHeader frames a SET up to its payload; the caller appends the
// valueLen payload bytes and the closing CRLF, building the payload in
// place.
func appendSetHeader(dst, key []byte, valueLen int) []byte {
	dst = append(dst, "SET "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(valueLen), 10)
	return append(dst, '\r', '\n')
}

// appendNGet frames an NGET; emb is the embedding already encoded as
// little-endian float32s and threshold its decimal text.
func appendNGet(dst, key []byte, threshold string, emb []byte) []byte {
	dst = append(dst, "NGET "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = append(dst, threshold...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(emb)/4), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, emb...)
	return append(dst, '\r', '\n')
}

func appendESet(dst, key, emb []byte) []byte {
	dst = append(dst, "ESET "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(emb)/4), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, emb...)
	return append(dst, '\r', '\n')
}

// roundTrip dials addr, sends one argument-less verb (NODES, METRICS) and
// returns its reply. It is the control path; measured traffic uses genConn.
func roundTrip(addr, verb string) (reply, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return reply{}, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return reply{}, err
	}
	if _, err := c.Write([]byte(verb + "\r\n")); err != nil {
		return reply{}, err
	}
	rep, err := newReplyReader(c).read()
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", verb, addr, err)
	}
	// Body aliases the reader that dies with this call.
	rep.Body = append([]byte(nil), rep.Body...)
	return rep, nil
}
