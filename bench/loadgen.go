package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opNGet
	opESet
)

func (k opKind) isRead() bool { return k == opGet || k == opNGet }

func (k opKind) String() string { return [...]string{"GET", "SET", "NGET", "ESET"}[k] }

// op is one request in flight. ref is the instant its latency is measured
// from, in nanoseconds since the phase started: the intended send time in
// an open loop, the actual send time in a closed one.
type op struct {
	kind opKind
	key  int32
	ref  time.Duration
}

// traffic draws one connection's request stream; ok=false ends a phase
// that has no duration (the preload pass).
type traffic interface {
	next() (kind opKind, key int, ok bool)
}

// target frames requests and checks replies for one key space.
type target interface {
	frame(dst []byte, kind opKind, key int) []byte
	// check verifies a reply byte for byte. hit reports a read answered
	// with a value (VALUE or NEAR); err is a wrong or failed reply.
	check(kind opKind, key int, rep *reply) (hit bool, err error)
}

// phase is one timed stretch of load over all connections.
type phase struct {
	name    string
	dur     time.Duration // 0: run until the traffic is exhausted
	rate    float64       // requests/s over all connections; 0 = closed loop
	window  int           // closed loop: requests in flight per connection
	limitUS float64       // latency limit the SLO share is counted against
}

// lateAfter is how far behind its schedule a send may be before it counts
// as late: beyond it the generator, not the server, shaped the load.
const lateAfter = time.Millisecond

// inflightCap bounds the sent-but-unanswered requests of one connection.
// It is far above what the kernel's socket buffers hold for a stalled
// server, so the writer blocks on TCP before it blocks here.
const inflightCap = 1 << 15

type phaseResult struct {
	phase
	elapsed    time.Duration // until the last reply, or the end of the grace period
	sending    time.Duration // until the writers stopped
	sent       int64
	answered   int64
	reads      int64
	readHits   int64
	failed     int64 // errors, wrong content, unanswered
	firstErr   string
	late       int64
	maxLag     time.Duration
	backlogEnd int64
	buckets    [][]float64 // latency in µs, by 100 ms window of ref time
	genCPU     float64     // generator CPU seconds over the phase
}

func (r *phaseResult) opsPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.answered) / r.elapsed.Seconds()
}

// typicalOpsPerSec is the median over the phase's windows of the requests
// sent in the window and answered, per second.
func (r *phaseResult) typicalOpsPerSec() float64 {
	return medianRate(r.buckets, r.dur.Seconds()/float64(len(r.buckets)))
}

func (r *phaseResult) lateRatio() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.late) / float64(r.sent)
}

func (r *phaseResult) hitRatio() float64 {
	if r.reads == 0 {
		return 0
	}
	return float64(r.readHits) / float64(r.reads)
}

// sloOK is the share of requests sent that were answered correctly within
// the phase's latency limit; a failed or unanswered request misses it.
func (r *phaseResult) sloOK() float64 {
	return shareWithin(r.buckets, r.limitUS, int(r.sent))
}

// genConn is one connection of the generator: a writer and a reader
// goroutine per phase, replies matched to requests by order.
type genConn struct {
	nc  net.Conn
	rr  *replyReader
	w   *bufio.Writer
	buf []byte
	tr  traffic
}

func dialGen(addr string, tr traffic) (*genConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &genConn{nc: nc, rr: newReplyReader(nc), w: bufio.NewWriterSize(nc, 256<<10), tr: tr}, nil
}

// runPhase drives one phase over every connection and merges the results.
func runPhase(conns []*genConn, tg target, ph phase) *phaseResult {
	buckets := windowCount(ph.dur.Seconds())
	res := &phaseResult{phase: ph, buckets: make([][]float64, buckets)}
	parts := make([]*phaseResult, len(conns))
	cpu0 := cpuSeconds(os.Getpid())
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		parts[i] = &phaseResult{phase: ph, buckets: make([][]float64, buckets)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(tg, ph, len(conns), start, parts[i])
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.genCPU = cpuSeconds(os.Getpid()) - cpu0
	for _, p := range parts {
		res.sent += p.sent
		res.answered += p.answered
		res.reads += p.reads
		res.readHits += p.readHits
		res.failed += p.failed
		res.late += p.late
		res.backlogEnd += p.backlogEnd
		res.sending = max(res.sending, p.sending)
		if p.maxLag > res.maxLag {
			res.maxLag = p.maxLag
		}
		if res.firstErr == "" {
			res.firstErr = p.firstErr
		}
		for b := range p.buckets {
			res.buckets[b] = append(res.buckets[b], p.buckets[b]...)
		}
	}
	return res
}

// run executes the phase on this connection. The writer (this goroutine)
// queues each op on inflight before its frame can reach the socket, so the
// reader always finds the op a reply belongs to.
func (c *genConn) run(tg target, ph phase, nconns int, start time.Time, res *phaseResult) {
	inflight := make(chan op, inflightCap)
	var tokens chan struct{}
	if ph.rate == 0 {
		tokens = make(chan struct{}, ph.window)
		for i := 0; i < ph.window; i++ {
			tokens <- struct{}{}
		}
	}
	_ = c.nc.SetReadDeadline(time.Time{}) // a failure shows on the next read

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c.readReplies(tg, ph, start, inflight, tokens, res)
	}()

	send := func(ref time.Duration) bool {
		kind, key, ok := c.tr.next()
		if !ok {
			return false
		}
		c.buf = tg.frame(c.buf[:0], kind, key)
		// A write error resurfaces on Flush and then as unanswered ops.
		_, _ = c.w.Write(c.buf)
		inflight <- op{kind: kind, key: int32(key), ref: ref}
		res.sent++
		return true
	}

	if ph.rate > 0 {
		c.openLoop(ph, nconns, start, send, res)
	} else {
		c.closedLoop(ph, start, send, tokens)
	}
	res.sending = time.Since(start)
	res.backlogEnd = int64(len(inflight))
	close(inflight)
	// Let outstanding replies arrive; what is still missing after the
	// grace period is counted as unanswered by the reader.
	_ = c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	<-readerDone
}

// pause sleeps for d on the calling thread. time.Sleep rounds a wait this
// short up to about a millisecond (the runtime's timers wake through the
// network poller), which would make the generator itself the largest part
// of every latency; nanosleep on a locked thread wakes within ~100µs.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens one pause
}

func (c *genConn) openLoop(ph phase, nconns int, start time.Time, send func(time.Duration) bool, res *phaseResult) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	interval := time.Duration(float64(time.Second) * float64(nconns) / ph.rate)
	var n int64 // requests scheduled so far; request n is due at n*interval
	for {
		now := time.Since(start)
		if now >= ph.dur {
			return
		}
		for due := int64(now / interval); n <= due; n++ {
			ref := time.Duration(n) * interval
			if !send(ref) {
				return
			}
			if n%64 == 63 {
				now = time.Since(start) // a blocked write ages the burst
			}
			if lag := now - ref; lag > lateAfter {
				res.late++
				if lag > res.maxLag {
					res.maxLag = lag
				}
			}
		}
		if err := c.w.Flush(); err != nil {
			return
		}
		// A wake-up slightly late sends the few requests that came due
		// together; pausing for less than that only spins.
		pause(max(time.Duration(n)*interval-time.Since(start), 50*time.Microsecond))
	}
}

func (c *genConn) closedLoop(ph phase, start time.Time, send func(time.Duration) bool, tokens chan struct{}) {
	var deadline <-chan time.Time
	if ph.dur > 0 {
		t := time.NewTimer(ph.dur)
		defer t.Stop()
		deadline = t.C
	}
	for {
		select {
		case <-tokens:
		case <-deadline:
			return
		}
		if !send(time.Since(start)) {
			return
		}
		// Whatever further replies have already come back go out in the
		// same flush.
		for more := true; more; {
			select {
			case <-tokens:
				if !send(time.Since(start)) {
					_ = c.w.Flush()
					return
				}
			default:
				more = false
			}
		}
		if err := c.w.Flush(); err != nil {
			return
		}
	}
}

func (c *genConn) readReplies(tg target, ph phase, start time.Time, inflight <-chan op, tokens chan<- struct{}, res *phaseResult) {
	width := ph.dur / time.Duration(len(res.buckets))
	fail := func(msg string) {
		res.failed++
		if res.firstErr == "" {
			res.firstErr = msg
		}
	}
	for o := range inflight {
		rep, err := c.rr.read()
		if err != nil {
			// The connection is gone or silent: this op and every later one
			// are unanswered.
			fail(fmt.Sprintf("%s: reply to %v key %d: %v", ph.name, o.kind, o.key, err))
			for range inflight {
				res.failed++
			}
			return
		}
		lat := time.Since(start) - o.ref
		res.answered++
		if tokens != nil {
			tokens <- struct{}{}
		}
		hit, cerr := tg.check(o.kind, int(o.key), &rep)
		if cerr != nil {
			fail(fmt.Sprintf("%s: %v", ph.name, cerr))
			continue
		}
		if o.kind.isRead() {
			res.reads++
			if hit {
				res.readHits++
			}
		}
		b := 0
		if width > 0 {
			b = int(o.ref / width)
		}
		if b >= len(res.buckets) {
			b = len(res.buckets) - 1
		}
		res.buckets[b] = append(res.buckets[b], float64(lat)/float64(time.Microsecond))
	}
}

// stepOutcome is what the ladder rule needs to know about one open-loop
// step.
type stepOutcome struct {
	rate       float64
	p99US      float64
	limitUS    float64
	lateRatio  float64
	backlogEnd int64
	failed     int64
}

// ok reports whether the step held its rate: steady-state p99 within the
// limit, the generator on schedule, nothing failed, and no more requests
// left in flight at the end than twice what the rate keeps in flight when
// each takes the full limit (a backlog beyond that was growing).
func (s stepOutcome) ok() bool {
	allowed := int64(2 * s.rate * s.limitUS / 1e6)
	if allowed < 16 {
		allowed = 16
	}
	return s.failed == 0 && s.p99US <= s.limitUS && s.lateRatio <= 0.01 && s.backlogEnd <= allowed
}

// maxRateOK is the highest rate of an ascending ladder that held, counting
// a step only if every lower step held too.
func maxRateOK(steps []stepOutcome) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.ok() {
			break
		}
		best = s.rate
	}
	return best
}
