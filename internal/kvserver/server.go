// Package kvserver implements the in-memory cache tier as a real networked
// service — the role Redis plays in the paper's implementation ("uses Redis
// for in-memory caching, following SHADE").
//
// The simulation in internal/storage models this tier's *cost*; kvserver is
// the working implementation for deployments that want an actual shared
// cache process: a TCP server speaking a small memcached-style text
// protocol, backed by an N-way sharded, concurrency-safe LRU store with an
// item capacity (see store.go).
//
// # Protocol
//
// Lines end in \r\n; payloads are raw bytes:
//
//	GET <key>\r\n                          -> VALUE <nbytes>\r\n<payload>\r\n | NOT_FOUND
//	SET <key> <nbytes>\r\n<payload>\r\n    -> STORED | SERVER_ERROR <msg>
//	NGET <key> <threshold> <dim>\r\n<embedding>\r\n
//	                                       -> VALUE <nbytes>\r\n<payload>\r\n   (exact hit)
//	                                        | NEAR <key> <dist> <nbytes>\r\n<payload>\r\n
//	                                        | NOT_FOUND
//	ESET <key> <dim>\r\n<embedding>\r\n    -> STORED (indexed only while <key> is resident)
//	METRICS\r\n                            -> METRICS <nbytes>\r\n<payload>\r\n
//	QUIT\r\n                               -> connection closed
//
// NGET/ESET embeddings are <dim> little-endian IEEE-754 float32s
// (1 <= dim <= MaxEmbedDim), unit-normalized by the server; NGET's
// <threshold> is a decimal cosine-distance bound in [0, 2] and its NEAR
// fallback serves the nearest still-resident neighbor inside it — see
// nget.go for the full semantics (threshold 0 is byte-identical to GET).
// The index holds an embedding only while its key is resident: eviction
// unlinks it, and an ESET of a key the store does not hold is
// answered STORED and unlinked at once, as if the key had been evicted
// right after it, so the index can never outgrow the store. SET first.
//
// Cluster verbs (see clusterverbs.go; standalone servers answer them too):
//
//	HELLO <addr>\r\n                       -> NODES <n>\r\n then n lines <addr>\r\n
//	NODES\r\n                              -> NODES <n>\r\n then n lines <addr>\r\n
//
// A SET is stored on the node it is sent to and nowhere else: replicating
// a key is the client's job (cluster.Client writes every owner).
//
// # Pipelining
//
// Clients may write any number of complete request frames back to back
// without waiting for replies; the server answers them in order. The
// connection loop drains every *complete* buffered request before flushing,
// so one coalesced write (often one syscall) carries many replies — this,
// not per-op latency, is where batch throughput comes from. Each request
// frame should be written whole: the server blocks reading an incomplete
// frame's payload with replies still unflushed, so a client that sends a
// partial frame and then waits for earlier replies can deadlock itself
// (the same contract as memcached/redis pipelining).
//
// # Errors
//
// Malformed input earns `SERVER_ERROR <msg>` and a closed connection,
// where <msg> is one of the stable strings below (errBadCommand etc.) —
// never a raw Go error, so clients and fuzz corpora can match on them
// across refactors. I/O errors close the connection silently.
//
// # METRICS
//
// METRICS returns the server's telemetry registry rendered in the
// Prometheus text exposition format: per-op counters
// (kv_ops_total{op=...,result=...}), per-op latency summaries with
// p50/p95/p99 (kv_op_seconds{op=...}), resident-item/hit/miss gauges,
// per-shard resident-item gauges (kv_shard_items{shard="N"} — shard
// balance at a glance), the pipeline-depth histogram kv_pipeline_depth
// (requests served per network flush) and the kv_net_flushes_total
// coalescing counter.
package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spidercache/internal/hnsw"
	"spidercache/internal/telemetry"
)

// MaxValueSize bounds a single payload (guards the server against abusive
// SETs).
const MaxValueSize = 64 << 20

// MaxKeyLen bounds key length.
const MaxKeyLen = 256

// protoErr is a protocol-level error with a stable wire string. Every
// malformed frame maps onto exactly one of the values below; the server
// replies "SERVER_ERROR <string>" and closes the connection.
type protoErr string

func (e protoErr) Error() string { return string(e) }

// The full stable protocol error vocabulary. fuzz_test.go's protoErrs
// lists it too: a new value goes in both places.
const (
	errEmptyCommand = protoErr("empty command")
	errUnknownCmd   = protoErr("unknown command")
	errBadArgs      = protoErr("bad arguments")
	errKeyTooLong   = protoErr("key too long")
	errBadLength    = protoErr("bad value length")
	errBadPayload   = protoErr("bad payload framing")
	errLineTooLong  = protoErr("line too long")
	errBadEmbedDim  = protoErr("bad embedding dim")
	errBadThreshold = protoErr("bad threshold")
	errBadNodeAddr  = protoErr("bad node address") // a HELLO address the wire cannot carry
)

// Server is the TCP cache server.
type Server struct {
	store    *store
	sem      *semIndex // node-local semantic index behind NGET/ESET
	listener net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	cluster ClusterHooks

	reg *telemetry.Registry
	tel serverTelemetry
}

// serverTelemetry groups the per-op instruments, resolved once at startup.
type serverTelemetry struct {
	getHit, getMiss            *telemetry.Counter
	setOps, esetOps            *telemetry.Counter
	semExact, semNear, semMiss *telemetry.Counter   // NGET outcomes
	semDist                    *telemetry.Histogram // cosine distance of served NEAR substitutes
	semLive, semFree           *telemetry.Gauge     // semantic index slots: holding an embedding, awaiting reuse
	semLinks                   *telemetry.Gauge     // links the semantic index's graph holds
	semUnlink                  *telemetry.Histogram // cost of removing one embedding, on the SET or ESET path
	getLat, setLat             *telemetry.Histogram
	ngetLat, esetLat           *telemetry.Histogram
	items, hits, misses        *telemetry.Gauge
	shardItems                 []*telemetry.Gauge // one gauge per store shard
	flushes                    *telemetry.Counter // network flushes (coalesced writes)
	pipelineDepth              *telemetry.Histogram
	gcCycles                   *telemetry.Gauge // the process's collector cycles, read at each METRICS
}

func newServerTelemetry(reg *telemetry.Registry, shards int) serverTelemetry {
	reg.Describe("kv_ops_total", "kvserver operations by op and result")
	reg.Describe("kv_op_seconds", "kvserver per-op service latency (p50/p95/p99)")
	reg.Describe("kv_items", "resident items")
	reg.Describe("kv_hits", "store lookups that found their key since start, read at each METRICS")
	reg.Describe("kv_misses", "store lookups that missed their key since start, read at each METRICS")
	reg.Describe("kv_shard_items", "resident items per store shard")
	reg.Describe("kv_net_flushes_total", "network flushes; each may carry many pipelined replies")
	reg.Describe("kv_pipeline_depth", "requests served per network flush")
	reg.Describe("kv_semantic_hits_total", "NGET outcomes: exact hit, near (semantic substitute served), miss")
	reg.Describe("kv_semantic_dist", "cosine distance of served NEAR substitutes")
	reg.Describe("kv_semantic_index_points", "semantic index slots: live embeddings, and free slots deleted ones left for reuse")
	reg.Describe("kv_semantic_index_links", "links held by the semantic index's graph, all layers; over the slot count it is the mean degree")
	reg.Describe("kv_semantic_unlink_seconds", "time an eviction or the ESET of a non-resident key spent removing the key's embedding from the index")
	reg.Describe("kv_gc_cycles", "garbage-collection cycles the serving process has completed since start, read at each METRICS")
	tel := serverTelemetry{
		getHit:        reg.Counter("kv_ops_total", telemetry.Labels{"op": "get", "result": "hit"}),
		getMiss:       reg.Counter("kv_ops_total", telemetry.Labels{"op": "get", "result": "miss"}),
		setOps:        reg.Counter("kv_ops_total", telemetry.Labels{"op": "set", "result": "stored"}),
		esetOps:       reg.Counter("kv_ops_total", telemetry.Labels{"op": "eset", "result": "stored"}),
		semExact:      reg.Counter("kv_semantic_hits_total", telemetry.Labels{"result": "exact"}),
		semNear:       reg.Counter("kv_semantic_hits_total", telemetry.Labels{"result": "near"}),
		semMiss:       reg.Counter("kv_semantic_hits_total", telemetry.Labels{"result": "miss"}),
		semDist:       reg.Histogram("kv_semantic_dist", nil),
		semLive:       reg.Gauge("kv_semantic_index_points", telemetry.Labels{"state": "live"}),
		semFree:       reg.Gauge("kv_semantic_index_points", telemetry.Labels{"state": "free"}),
		semLinks:      reg.Gauge("kv_semantic_index_links", nil),
		semUnlink:     reg.Histogram("kv_semantic_unlink_seconds", nil),
		getLat:        reg.Histogram("kv_op_seconds", telemetry.Labels{"op": "get"}),
		setLat:        reg.Histogram("kv_op_seconds", telemetry.Labels{"op": "set"}),
		ngetLat:       reg.Histogram("kv_op_seconds", telemetry.Labels{"op": "nget"}),
		esetLat:       reg.Histogram("kv_op_seconds", telemetry.Labels{"op": "eset"}),
		items:         reg.Gauge("kv_items", nil),
		hits:          reg.Gauge("kv_hits", nil),
		misses:        reg.Gauge("kv_misses", nil),
		flushes:       reg.Counter("kv_net_flushes_total", nil),
		pipelineDepth: reg.Histogram("kv_pipeline_depth", nil),
		gcCycles:      reg.Gauge("kv_gc_cycles", nil),
	}
	tel.shardItems = make([]*telemetry.Gauge, shards)
	for i := range tel.shardItems {
		tel.shardItems[i] = reg.Gauge("kv_shard_items", telemetry.Labels{"shard": strconv.Itoa(i)})
	}
	return tel
}

// Serve starts a server on ln over an LRU store of capacity items and
// returns at once; connections are handled in background goroutines until
// Close. The store shards itself from capacity (one shard per 64 items, at
// most 16). The server owns ln from the call on: Close closes it, and so
// does Serve itself when capacity is below 1.
//
// reg receives the server's telemetry and backs the METRICS verb; nil
// means a private registry, so METRICS always works. A shared registry
// lets a host process fold kvserver metrics into its own exposition, and
// anything else registered there is served by METRICS too. hooks connects
// the server to a cluster daemon's membership (see ClusterHooks); nil means
// standalone: HELLO/NODES answer with an empty node set.
func Serve(ln net.Listener, capacity int, reg *telemetry.Registry, hooks ClusterHooks) (*Server, error) {
	if capacity < 1 {
		//lint:ignore errcheck the capacity error is what the caller sees; the listener close is cleanup
		ln.Close()
		return nil, fmt.Errorf("kvserver: -capacity must be >= 1, got %d", capacity)
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	srv := newServerCore(newStore(capacity), reg)
	srv.listener = ln
	srv.cluster = hooks
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

// newServerCore assembles the serving state over an already-built store
// — everything but the listener plumbing, shared by Serve and the
// in-process tests/fuzzers that drive serveOne directly. It wires the
// store's eviction notifications into the semantic index: an evicted
// key's embedding must stop producing NEAR candidates (the residency
// check would drop them anyway, but they would crowd the top-k). The
// hook is invoked after the shard mutex is released (see store.go), so
// the sem.mu acquisition here never nests inside a shard lock.
func newServerCore(st *store, reg *telemetry.Registry) *Server {
	srv := &Server{
		store: st,
		sem:   newSemIndex(),
		conns: make(map[net.Conn]struct{}),
		reg:   reg,
		tel:   newServerTelemetry(reg, st.numShards()),
	}
	st.onEvict = srv.unlinkEmbedding
	return srv
}

// unlinkEmbedding removes key's embedding from the semantic index, if it
// has one, and times the removal, wait for sem.mu included: it runs inline
// on the SET path (eviction) and on the ESET of a key that is not
// resident, so its cost is theirs.
func (s *Server) unlinkEmbedding(key string) {
	start := time.Now()
	if s.sem.unlink(key) {
		s.tel.semUnlink.Observe(time.Since(start).Seconds())
	}
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Shards returns the store's shard count.
func (s *Server) Shards() int { return s.store.numShards() }

// Close stops the listener, force-closes active connections, and waits
// for their handlers to exit. Idle clients (e.g. pooled connections) do
// not delay shutdown; their next op fails as a transport error.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.listener.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		//lint:ignore errcheck force-close on shutdown; the handler observes the read error
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed.Load() {
			// Lost the race with Close: it already swept s.conns, so this
			// conn would never be force-closed. Reject it here instead.
			s.connMu.Unlock()
			//lint:ignore errcheck rejecting a connection that raced shutdown
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// connBufSize sizes each connection's read and write buffers.
const connBufSize = 16 << 10

// session is the per-connection parse state: the bufio pair plus reusable
// scratch so steady-state request parsing allocates nothing.
type session struct {
	r      *bufio.Reader
	w      *bufio.Writer
	fields [][]byte      // field-split scratch, aliases the reader's buffer
	num    []byte        // integer formatting scratch
	key    []byte        // a SET's, NGET's or ESET's key, copied out of the reader's buffer
	hdr    []byte        // the header of a reply carrying a stored value
	val    []byte        // a stored value copied out for a reply (stage)
	emb    []byte        // embedding payload scratch (NGET/ESET)
	vec    []float64     // decoded embedding scratch (NGET/ESET)
	res    []hnsw.Result // an NGET's index search results (semIndex.lookup)
	near   []semNeighbor // an NGET's candidates, mapped to keys (semIndex.lookup)
}

func newSession(r *bufio.Reader, w *bufio.Writer) *session {
	return &session{r: r, w: w}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, connBufSize)
	w := bufio.NewWriterSize(conn, connBufSize)
	sess := newSession(r, w)

	depth := int64(0) // requests answered since the last flush
	for {
		err := s.serveOne(sess)
		if err != nil {
			// Flush replies already produced by earlier pipelined
			// requests, then report protocol errors with their stable
			// string. I/O errors (EOF, reset) close silently.
			var pe protoErr
			if errors.As(err, &pe) && !s.closed.Load() {
				w.WriteString("SERVER_ERROR ")
				w.WriteString(string(pe))
				w.WriteString("\r\n")
			}
			//lint:ignore errcheck connection is closing; nothing can act on a flush failure
			w.Flush()
			return
		}
		depth++
		// Drain: if at least one more complete request line is already
		// buffered, keep serving before paying for a flush — one coalesced
		// write then carries every reply.
		if n := r.Buffered(); n > 0 {
			if peek, _ := r.Peek(n); bytes.IndexByte(peek, '\n') >= 0 {
				continue
			}
		}
		s.tel.flushes.Inc()
		s.tel.pipelineDepth.Observe(float64(depth))
		depth = 0
		if err := w.Flush(); err != nil {
			return
		}
	}
}

var errQuit = errors.New("quit")

// serveOne reads and answers exactly one request frame. Replies are written
// to sess.w but not flushed; the caller owns flushing.
func (s *Server) serveOne(sess *session) error {
	line, err := sess.readLine()
	if err != nil {
		return err
	}
	fields := splitFields(line, sess.fields[:0])
	sess.fields = fields // keep grown scratch for the next request
	if len(fields) == 0 {
		return errEmptyCommand
	}
	cmd := fields[0]
	args := fields[1:]
	switch {
	case cmdEq(cmd, "GET"):
		return s.doGet(sess, args)
	case cmdEq(cmd, "SET"):
		return s.doSet(sess, args)
	case cmdEq(cmd, "NGET"):
		return s.doNGet(sess, args)
	case cmdEq(cmd, "ESET"):
		return s.doESet(sess, args)
	case cmdEq(cmd, "HELLO"):
		return s.doHello(sess, args)
	case cmdEq(cmd, "NODES"):
		return s.doNodes(sess, args)
	case cmdEq(cmd, "METRICS"):
		return s.doMetrics(sess, args)
	case cmdEq(cmd, "QUIT"):
		return errQuit
	default:
		return errUnknownCmd
	}
}

func (s *Server) doGet(sess *session, args [][]byte) error {
	if len(args) != 1 {
		return errBadArgs
	}
	start := time.Now()
	sess.hdr = append(sess.hdr[:0], "VALUE "...)
	ok := get(s.store, args[0], sess.stage)
	err := sess.sendValue(ok)
	if ok {
		s.tel.getHit.Inc()
	} else {
		s.tel.getMiss.Inc()
	}
	s.tel.getLat.Observe(time.Since(start).Seconds())
	return err
}

func (s *Server) doSet(sess *session, args [][]byte) error {
	if len(args) != 2 {
		return errBadArgs
	}
	start := time.Now()
	key, value, err := sess.readPayload(s.store, args[0], args[1])
	if err != nil {
		return err
	}
	s.store.set(key, value)
	_, err = sess.w.WriteString("STORED\r\n")
	s.tel.setOps.Inc()
	s.tel.setLat.Observe(time.Since(start).Seconds())
	return err
}

func (s *Server) doMetrics(sess *session, args [][]byte) error {
	if len(args) != 0 {
		return errBadArgs
	}
	payload := s.metricsText()
	sess.w.WriteString("METRICS ")
	sess.writeInt(int64(len(payload)))
	sess.w.WriteString("\r\n")
	sess.w.WriteString(payload)
	_, err := sess.w.WriteString("\r\n")
	return err
}

// readPayload validates a <key> <nbytes> header pair and reads the
// CRLF-terminated payload into a buffer the key's shard hands out
// (store.buf). The key is session scratch, valid until the next request;
// the value is the caller's to give to the store.
func (sess *session) readPayload(st *store, keyField, lenField []byte) (key, value []byte, err error) {
	if len(keyField) > MaxKeyLen {
		return nil, nil, errKeyTooLong
	}
	n, err := parseLength(lenField)
	if err != nil || n < 0 || n > MaxValueSize {
		return nil, nil, errBadLength
	}
	// Copy the key BEFORE reading the payload: keyField aliases the
	// reader's buffer, which the payload read refills.
	sess.key = append(sess.key[:0], keyField...)
	value = st.buf(sess.key, n)
	if _, err := io.ReadFull(sess.r, value); err != nil {
		return nil, nil, err
	}
	if err := sess.expectCRLF(); err != nil {
		return nil, nil, err
	}
	return sess.key, value, nil
}

// A reply that carries a stored value is written in two halves around the
// value's shard mutex, because a SET may recycle the value's buffer once
// the mutex is released (store.go). The caller puts the header up to the
// length into sess.hdr ("VALUE ", "NEAR <key> <dist> ") and passes stage
// to get; sendValue then finishes the reply after the unlock.

// stage runs under the value's shard mutex. It completes the header with
// the value's length and, when the header, value and closing CRLF fit in
// the reply buffer, writes the header and value there: one copy, and no
// flush under the mutex. Otherwise it copies the value into sess.val.
// Either way sess.hdr and sess.val hold what is left to write.
func (sess *session) stage(value []byte) {
	sess.hdr = strconv.AppendInt(sess.hdr, int64(len(value)), 10)
	sess.hdr = append(sess.hdr, '\r', '\n')
	if len(sess.hdr)+len(value)+2 <= sess.w.Available() {
		sess.w.Write(sess.hdr)
		sess.w.Write(value)
		sess.hdr, sess.val = sess.hdr[:0], sess.val[:0]
		return
	}
	sess.val = append(sess.val[:0], value...)
}

// sendValue finishes a reply after the shard mutex is released: on a hit,
// what stage left to write and the closing CRLF; on a miss, NOT_FOUND.
func (sess *session) sendValue(found bool) error {
	if !found {
		_, err := sess.w.WriteString("NOT_FOUND\r\n")
		return err
	}
	sess.w.Write(sess.hdr)
	sess.w.Write(sess.val)
	_, err := sess.w.WriteString("\r\n")
	return err
}

func (sess *session) writeInt(n int64) {
	sess.num = strconv.AppendInt(sess.num[:0], n, 10)
	sess.w.Write(sess.num)
}

// readLine returns the next line without its \r\n (or \n) terminator. The
// returned slice aliases the reader's buffer and is only valid until the
// next read. No request line outgrows the buffer (keys and node addresses
// are at most MaxKeyLen bytes), so one that does is errLineTooLong.
func (sess *session) readLine() ([]byte, error) {
	line, err := sess.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	return trimCRLF(line), nil
}

func trimCRLF(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

func (sess *session) expectCRLF() error {
	b, err := sess.r.ReadByte()
	if err != nil {
		return err
	}
	if b != '\r' {
		return errBadPayload
	}
	b, err = sess.r.ReadByte()
	if err != nil {
		return err
	}
	if b != '\n' {
		return errBadPayload
	}
	return nil
}

// splitFields appends line's space-separated fields to out (reusing its
// backing array). Fields alias line.
func splitFields(line []byte, out [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' {
			i++
		}
		if i > start {
			out = append(out, line[start:i])
		}
	}
	return out
}

// cmdEq reports whether cmd equals the (uppercase) verb, ASCII
// case-insensitively, without allocating.
func cmdEq(cmd []byte, verb string) bool {
	if len(cmd) != len(verb) {
		return false
	}
	for i := 0; i < len(cmd); i++ {
		c := cmd[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != verb[i] {
			return false
		}
	}
	return true
}

// parseLength parses a non-negative decimal integer field.
func parseLength(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 10 {
		return 0, errBadLength
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadLength
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// metricsText refreshes the store-level, per-shard, semantic-index and
// collector gauges and renders the registry in the Prometheus text
// exposition format.
func (s *Server) metricsText() string {
	items, hits, misses := s.store.stats()
	s.tel.items.Set(float64(items))
	s.tel.hits.Set(float64(hits))
	s.tel.misses.Set(float64(misses))
	for i, g := range s.tel.shardItems {
		n, _, _, _ := s.store.shardStats(i)
		g.Set(float64(n))
	}
	live, free := s.sem.size()
	s.tel.semLive.Set(float64(live))
	s.tel.semFree.Set(float64(free))
	s.tel.semLinks.Set(float64(s.sem.ix.Links()))
	gc := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(gc)
	s.tel.gcCycles.Set(float64(gc[0].Value.Uint64()))
	return s.reg.Prometheus()
}
