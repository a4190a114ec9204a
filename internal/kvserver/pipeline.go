package kvserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// opKind is a queued keyed request; it picks the frame writer, the reply
// reader and the verb named in errors.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opNGet
	opESet
)

var verbs = [...]string{
	opGet: "GET", opSet: "SET", opNGet: "NGET", opESet: "ESET",
}

// Result is the outcome of one pipelined operation, in queue order.
type Result struct {
	// Value is the fetched payload (Get and NGet hits only).
	Value []byte
	// Found reports a Get/NGet hit; Set and ESet success is Err == nil.
	Found bool
	// Near is set when an NGet was answered with a semantic substitute
	// rather than an exact hit.
	Near *Near
	// Err is a per-op protocol failure. Transport errors abort the whole
	// Recv instead.
	Err error
}

// Pipeline queues operations on a client and sends them all in one network
// flush; the server answers back to back, so N operations cost one round
// trip instead of N. Build with Client.Pipeline, queue with Get/Set/NGet/
// ESet, then Exec: Send flushes the queue and Recv reads the replies. A
// caller with pipelines on several connections calls Send on each before
// Recv on any, so their round trips overlap. Like Client, a Pipeline is
// single-goroutine.
//
// Queued requests are written into the client's buffer immediately (a full
// buffer drains to the socket early, which is harmless — replies are only
// expected after Send). After Recv the pipeline is empty and reusable.
//
// A request that fails validation (bad key, embedding or threshold) is
// never written; Send then reports that error and drops every frame queued
// with it unsent. A pipeline large enough to have drained part of its
// frames before the bad one leaves the connection out of step: discard the
// client then (Pool.Do does).
type Pipeline struct {
	c    *Client
	ops  []opKind
	werr error // first queue-time error; Send reports it
}

// Pipeline starts an empty pipeline on the client. The client must not be
// used for other operations until Recv (or Exec) returns.
func (c *Client) Pipeline() *Pipeline {
	return &Pipeline{c: c}
}

// Len reports the number of queued operations.
func (p *Pipeline) Len() int { return len(p.ops) }

// Get queues a GET.
func (p *Pipeline) Get(key string) {
	if p.werr == nil {
		p.add(opGet, p.c.writeGetFrame(key))
	}
}

// Set queues a SET.
func (p *Pipeline) Set(key string, value []byte) {
	if p.werr == nil {
		p.add(opSet, p.c.writeSetFrame(key, value))
	}
}

// NGet queues an NGET: GET with a semantic fallback. An exact hit returns
// the value; a near hit, the nearest resident neighbor within the
// cosine-distance threshold, returns its value with a non-nil Result.Near;
// a miss returns Found false. threshold 0 requests exact-only (GET)
// semantics.
func (p *Pipeline) NGet(key string, emb []float32, threshold float64) {
	if p.werr == nil {
		p.add(opNGet, p.c.writeNGetFrame(key, emb, threshold))
	}
}

// ESet queues an ESET: emb becomes key's embedding in the server's
// node-local semantic index while key is resident (see the package doc).
func (p *Pipeline) ESet(key string, emb []float32) {
	if p.werr == nil {
		p.add(opESet, p.c.writeESetFrame(key, emb))
	}
}

// add records a queued op whose frame writer returned err.
func (p *Pipeline) add(kind opKind, err error) {
	if err != nil {
		p.werr = err
		return
	}
	p.ops = append(p.ops, kind)
}

// Exec is Send and then Recv: every queued operation in one write, and
// their replies in order. A transport or framing error aborts with a nil
// slice (the connection should be discarded); per-op protocol errors land
// in the matching Result.Err. Exec on an empty pipeline is a no-op.
func (p *Pipeline) Exec() ([]Result, error) {
	if err := p.Send(); err != nil {
		return nil, err
	}
	return p.Recv()
}

// Send flushes every queued operation in one write and returns without
// waiting for a reply; Recv reads them. Queue nothing between the two. A
// failed Send empties the pipeline (the connection should be discarded).
func (p *Pipeline) Send() error {
	if err := p.werr; err != nil {
		p.werr = nil
		p.ops = p.ops[:0]
		if errors.Is(err, errBadRequest) {
			p.c.w.Reset(p.c.conn) // drop the frames queued before the bad one
		}
		return err
	}
	if len(p.ops) == 0 {
		return nil
	}
	if err := p.c.flush(); err != nil {
		p.ops = p.ops[:0]
		return err
	}
	return nil
}

// Recv reads the replies to the operations Send flushed, in order, and
// empties the pipeline. A transport or framing error aborts with a nil
// slice (the connection should be discarded); per-op protocol errors land
// in the matching Result.Err.
func (p *Pipeline) Recv() ([]Result, error) {
	var results []Result
	if len(p.ops) > 0 {
		results = make([]Result, len(p.ops))
	}
	if err := p.recv(results); err != nil {
		return nil, err
	}
	return results, nil
}

// execOne is Exec for the client's own pipeline of one: the result comes
// back by value, so a single op allocates no result slice, and its per-op
// error is returned as the error.
func (p *Pipeline) execOne() (Result, error) {
	if err := p.Send(); err != nil {
		return Result{}, err
	}
	var res [1]Result
	if err := p.recv(res[:len(p.ops)]); err != nil {
		return Result{}, err
	}
	return res[0], res[0].Err
}

// recv reads one reply per sent op into results, which has one slot per
// op. The pipeline is empty afterwards.
func (p *Pipeline) recv(results []Result) error {
	ops := p.ops
	p.ops = p.ops[:0]
	for i, kind := range ops {
		r := &results[i]
		var err error
		switch kind {
		case opGet, opNGet:
			r.Value, r.Near, r.Found, err = p.c.readValue(verbs[kind])
		default:
			err = p.c.readStored(verbs[kind])
		}
		if err != nil {
			if !errors.Is(err, errRefused) {
				return err
			}
			r.Err = err
		}
	}
	return nil
}

// errOutOfStep tags a reply the client cannot frame: a VALUE or NEAR
// header it cannot parse, or a payload not followed by its CRLF. How much
// of the stream that reply takes is unknown, so every later reply would
// be read against the wrong op.
var errOutOfStep = errors.New("kvserver: reply stream out of step")

// errRefused tags the server's refusal of one op, "kvserver: <VERB>
// failed: <line>": a reply line that is neither the op's answer nor
// misframed. It consumes exactly that one reply, so recv reports it
// against its op and reads on; every other error it meets (a read that
// failed, errOutOfStep) leaves the stream unusable and aborts the Recv. A
// SERVER_ERROR reply also closes the server side, so the next read aborts
// anyway.
var errRefused = errors.New("kvserver:")

// The frame writers: one per verb, each validating its arguments before it
// writes a byte, so an invalid request never reaches the buffer.

// writeGetFrame appends "GET <key>\r\n".
func (c *Client) writeGetFrame(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	c.w.WriteString("GET ")
	c.w.WriteString(key)
	_, err := c.w.WriteString("\r\n")
	return err
}

// writeSetFrame appends "SET <key> <nbytes>\r\n<payload>\r\n".
func (c *Client) writeSetFrame(key string, value []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	c.w.WriteString("SET ")
	c.w.WriteString(key)
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.Itoa(len(value)))
	c.w.WriteString("\r\n")
	c.w.Write(value)
	_, err := c.w.WriteString("\r\n")
	return err
}

// writeESetFrame appends "ESET <key> <dim>\r\n<embedding>\r\n".
func (c *Client) writeESetFrame(key string, emb []float32) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := validEmbedding(emb); err != nil {
		return err
	}
	c.w.WriteString("ESET ")
	c.w.WriteString(key)
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.Itoa(len(emb)))
	c.w.WriteString("\r\n")
	return c.writeEmbedding(emb)
}

// writeNGetFrame appends "NGET <key> <threshold> <dim>\r\n<embedding>\r\n".
func (c *Client) writeNGetFrame(key string, emb []float32, threshold float64) error {
	if err := validKey(key); err != nil {
		return err
	}
	if err := validEmbedding(emb); err != nil {
		return err
	}
	if math.IsNaN(threshold) || math.IsInf(threshold, 0) || threshold < 0 {
		return fmt.Errorf("%w: invalid NGET threshold %v", errBadRequest, threshold)
	}
	c.w.WriteString("NGET ")
	c.w.WriteString(key)
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.FormatFloat(threshold, 'f', -1, 64))
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.Itoa(len(emb)))
	c.w.WriteString("\r\n")
	return c.writeEmbedding(emb)
}

// writeEmbedding appends the raw little-endian float32 payload and its
// terminating CRLF.
func (c *Client) writeEmbedding(emb []float32) error {
	var b [4]byte
	for _, f := range emb {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		c.w.Write(b[:])
	}
	_, err := c.w.WriteString("\r\n")
	return err
}

// The reply readers: one per reply shape.

// readValue reads one reply to GET or NGET: "VALUE <nbytes>" or
// NOT_FOUND, and for NGET also "NEAR <key> <dist> <nbytes>". found covers
// both hit kinds; near is non-nil only for NEAR. Any other line is a
// protocol failure of verb; a header it cannot parse is errOutOfStep.
func (c *Client) readValue(verb string) (value []byte, near *Near, found bool, err error) {
	line, err := c.readLine()
	if err != nil {
		return nil, nil, false, err
	}
	switch {
	case line == "NOT_FOUND":
		return nil, nil, false, nil
	case strings.HasPrefix(line, "VALUE "):
		n, err := strconv.Atoi(strings.TrimPrefix(line, "VALUE "))
		if err != nil || n < 0 || n > MaxValueSize {
			return nil, nil, false, fmt.Errorf("%w: bad VALUE header %q", errOutOfStep, line)
		}
		value, err := c.readBody(n)
		return value, nil, err == nil, err
	case verb == "NGET" && strings.HasPrefix(line, "NEAR "):
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, nil, false, fmt.Errorf("%w: bad NEAR header %q", errOutOfStep, line)
		}
		dist, derr := strconv.ParseFloat(fields[2], 64)
		n, nerr := strconv.Atoi(fields[3])
		if derr != nil || nerr != nil || dist < 0 || n < 0 || n > MaxValueSize {
			return nil, nil, false, fmt.Errorf("%w: bad NEAR header %q", errOutOfStep, line)
		}
		value, err := c.readBody(n)
		if err != nil {
			return nil, nil, false, err
		}
		return value, &Near{Key: fields[1], Dist: dist}, true, nil
	default:
		return nil, nil, false, fmt.Errorf("%w %s failed: %s", errRefused, verb, line)
	}
}

// readStored reads the STORED reply to SET or ESET.
func (c *Client) readStored(verb string) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "STORED" {
		return fmt.Errorf("%w %s failed: %s", errRefused, verb, line)
	}
	return nil
}

// readBody reads an n-byte payload and the CRLF that terminates it; a
// missing CRLF is errOutOfStep.
func (c *Client) readBody(n int) ([]byte, error) {
	body := make([]byte, n)
	if err := c.readFull(body); err != nil {
		return nil, err
	}
	var crlf [2]byte
	if err := c.readFull(crlf[:]); err != nil {
		return nil, err
	}
	if crlf != [2]byte{'\r', '\n'} {
		return nil, fmt.Errorf("%w: payload not CRLF-terminated", errOutOfStep)
	}
	return body, nil
}
