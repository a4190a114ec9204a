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
	opRSet
)

var verbs = [...]string{
	opGet: "GET", opSet: "SET", opNGet: "NGET", opESet: "ESET", opRSet: "RSET",
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
	// Exec instead.
	Err error
}

// Pipeline queues operations on a client and sends them all in one network
// flush; the server answers back to back, so N operations cost one round
// trip instead of N. Build with Client.Pipeline, queue with Get/Set/NGet/
// ESet, send with Exec. Like Client, a Pipeline is single-goroutine.
//
// Queued requests are written into the client's buffer immediately (a full
// buffer drains to the socket early, which is harmless — replies are only
// expected after Exec). After Exec the pipeline is empty and reusable.
//
// A request that fails validation (bad key, embedding or threshold) is
// never written; Exec then reports that error and drops every frame queued
// with it unsent. A pipeline large enough to have drained part of its
// frames before the bad one leaves the connection out of step: discard the
// client then (Pool.Do does).
type Pipeline struct {
	c    *Client
	ops  []opKind
	werr error // first queue-time error; Exec reports it
}

// Pipeline starts an empty pipeline on the client. The client must not be
// used for other operations until Exec.
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
		p.add(opSet, p.c.writeSetFrame(opSet, key, value))
	}
}

// NGet queues an NGET (see Client.NGet).
func (p *Pipeline) NGet(key string, emb []float32, threshold float64) {
	if p.werr == nil {
		p.add(opNGet, p.c.writeNGetFrame(key, emb, threshold))
	}
}

// ESet queues an ESET (see Client.ESet).
func (p *Pipeline) ESet(key string, emb []float32) {
	if p.werr == nil {
		p.add(opESet, p.c.writeESetFrame(key, emb))
	}
}

// rset queues an RSET (see Client.RSet).
func (p *Pipeline) rset(key string, value []byte) {
	if p.werr == nil {
		p.add(opRSet, p.c.writeSetFrame(opRSet, key, value))
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

// Exec flushes every queued operation in one write and collects their
// replies in order. A transport or framing error aborts with a nil slice
// (the connection should be discarded); per-op protocol errors land in the
// matching Result.Err. Exec on an empty pipeline is a no-op.
func (p *Pipeline) Exec() ([]Result, error) {
	var results []Result
	if len(p.ops) > 0 {
		results = make([]Result, len(p.ops))
	}
	if err := p.exec(results); err != nil {
		return nil, err
	}
	return results, nil
}

// execOne is Exec for the client's own pipeline of one: the result comes
// back by value, so a single op allocates no result slice, and its per-op
// error is returned as the error.
func (p *Pipeline) execOne() (Result, error) {
	var res [1]Result
	if err := p.exec(res[:len(p.ops)]); err != nil {
		return Result{}, err
	}
	return res[0], res[0].Err
}

// exec sends the queued ops and reads one reply per op into results, which
// has one slot per queued op. The pipeline is empty afterwards.
func (p *Pipeline) exec(results []Result) error {
	ops := p.ops
	p.ops = p.ops[:0]
	if err := p.werr; err != nil {
		p.werr = nil
		if errors.Is(err, errBadRequest) {
			p.c.w.Reset(p.c.conn) // drop the frames queued before the bad one
		}
		return err
	}
	if len(ops) == 0 {
		return nil
	}
	if err := p.c.flush(); err != nil {
		return err
	}
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
			if IsTransportErr(err) {
				return err
			}
			r.Err = err
		}
	}
	return nil
}

// IsTransportErr distinguishes connection-level failures (a dial, read or
// write that failed: the reply stream is unusable, remaining replies will
// never arrive — abort the Exec) from errors the client raises itself with
// a "kvserver:" prefix: unexpected-reply parses, which consume exactly one
// reply (safe to report per-op and keep reading), rejected requests and
// ErrPoolClosed. Only a transport error says the node may be down; a node
// that answered, however oddly, is up. A SERVER_ERROR reply also closes
// the server side, so the next read aborts as a transport error anyway.
func IsTransportErr(err error) bool {
	s := err.Error()
	return !(len(s) >= 9 && s[:9] == "kvserver:")
}

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

// writeSetFrame appends "<verb> <key> <nbytes>\r\n<payload>\r\n" (SET,
// RSET).
func (c *Client) writeSetFrame(kind opKind, key string, value []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	c.w.WriteString(verbs[kind])
	c.w.WriteByte(' ')
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
// protocol failure of verb.
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
			return nil, nil, false, fmt.Errorf("kvserver: bad VALUE header %q", line)
		}
		value, err := c.readBody(n)
		return value, nil, err == nil, err
	case verb == "NGET" && strings.HasPrefix(line, "NEAR "):
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, nil, false, fmt.Errorf("kvserver: bad NEAR header %q", line)
		}
		dist, derr := strconv.ParseFloat(fields[2], 64)
		n, nerr := strconv.Atoi(fields[3])
		if derr != nil || nerr != nil || dist < 0 || n < 0 || n > MaxValueSize {
			return nil, nil, false, fmt.Errorf("kvserver: bad NEAR header %q", line)
		}
		value, err := c.readBody(n)
		if err != nil {
			return nil, nil, false, err
		}
		return value, &Near{Key: fields[1], Dist: dist}, true, nil
	default:
		return nil, nil, false, fmt.Errorf("kvserver: %s failed: %s", verb, line)
	}
}

// readStored reads the STORED reply to SET, RSET or ESET.
func (c *Client) readStored(verb string) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "STORED" {
		return fmt.Errorf("kvserver: %s failed: %s", verb, line)
	}
	return nil
}

// readBody reads an n-byte payload and the CRLF that terminates it.
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
		return nil, fmt.Errorf("kvserver: payload not CRLF-terminated")
	}
	return body, nil
}
