// Package telemetry is the repository's dependency-free metrics substrate:
// a registry of named, optionally labeled instruments — atomic counters,
// float gauges and sliding-window histograms with p50/p95/p99 quantiles —
// plus Prometheus-style text exposition and a JSON snapshot (expose.go).
//
// Design points:
//
//   - All instruments are safe for concurrent use. Counters and gauges are
//     single atomic words; histograms serialise observations behind a mutex
//     over a fixed-size ring (the sliding window).
//   - Getters are get-or-create and idempotent: calling Counter with the
//     same name+labels returns the same instrument, so call sites never
//     need registration ceremony.
//   - A nil *Registry is valid everywhere and hands out shared no-op
//     instruments, so instrumented packages take an optional registry
//     without guarding every record site.
//
// Series identity is Prometheus-style: a family name plus a sorted label
// set, rendered as `name{k1="v1",k2="v2"}`.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an unordered label set attached to one series of a family.
// Nil means an unlabeled series.
type Labels map[string]string

// DefaultWindow is the histogram sliding-window size used by
// Registry.Histogram.
const DefaultWindow = 1024

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// kind discriminates instrument types within the registry.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (lock-free compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram records observations into a fixed-size sliding window and
// reports quantiles over the most recent window alongside cumulative
// count/sum. Quantiles use the nearest-rank definition on the sorted
// window: q maps to element ceil(q·n)−1 of the ascending order.
type Histogram struct {
	mu     sync.Mutex
	window []float64 // ring buffer of the last len(window) observations
	next   int       // next write position
	n      int       // valid entries in window (≤ len(window))
	count  int64     // cumulative observation count
	sum    float64   // cumulative observation sum
}

func newHistogram(window int) *Histogram {
	if window < 1 {
		window = DefaultWindow
	}
	return &Histogram{window: make([]float64, window)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.window[h.next] = v
	h.next = (h.next + 1) % len(h.window)
	if h.n < len(h.window) {
		h.n++
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the cumulative number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the cumulative sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// rank returns the nearest-rank q-quantile of the ascending, non-empty
// xs: element ceil(q·n)−1.
func rank(xs []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx]
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
}

// Snapshot returns cumulative count/sum plus min/max and p50/p95/p99 over
// the sliding window. Quantile fields are NaN-free: an empty histogram
// snapshots as all zeros.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	xs := make([]float64, h.n)
	if h.n == len(h.window) {
		copy(xs, h.window)
	} else {
		copy(xs, h.window[:h.n])
	}
	snap := HistogramSnapshot{Count: h.count, Sum: h.sum}
	h.mu.Unlock()

	if len(xs) == 0 {
		return snap
	}
	sort.Float64s(xs)
	snap.Min = xs[0]
	snap.Max = xs[len(xs)-1]
	snap.P50 = rank(xs, 0.50)
	snap.P95 = rank(xs, 0.95)
	snap.P99 = rank(xs, 0.99)
	return snap
}

// series is one registered instrument.
type series struct {
	name   string
	labels string // canonical sorted `k1="v1",k2="v2"` form ("" if none)
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// id returns the full series identity, `name` or `name{labels}`.
func (s *series) id() string {
	if s.labels == "" {
		return s.name
	}
	return s.name + "{" + s.labels + "}"
}

// Registry holds a process's instruments. The zero value is NOT usable —
// call NewRegistry — but a nil *Registry is: every getter on nil returns a
// shared unregistered no-op instrument.
type Registry struct {
	mu     sync.RWMutex
	byID   map[string]*series
	help   map[string]string // family name -> help text
	sorted []*series         // insertion order; exposition re-sorts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*series), help: make(map[string]string)}
}

// Shared no-op instruments handed out by a nil registry. They are real,
// functioning instruments — just not attached to any exposition.
var (
	nopCounter   = &Counter{}
	nopGauge     = &Gauge{}
	nopHistogram = newHistogram(1)
)

// Describe sets the help text emitted for a family in the Prometheus
// exposition. No-op on a nil registry.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Counter returns the counter for name+labels, creating it on first use.
// Panics if the series already exists with a different kind or the name is
// invalid. On a nil registry it returns a shared no-op counter.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nopCounter
	}
	return r.lookup(name, labels, kindCounter).counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
// On a nil registry it returns a shared no-op gauge.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nopGauge
	}
	return r.lookup(name, labels, kindGauge).gauge
}

// Histogram returns the sliding-window histogram for name+labels with the
// DefaultWindow size, creating it on first use. On a nil registry it
// returns a shared no-op histogram.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	return r.HistogramWindow(name, DefaultWindow, labels)
}

// HistogramWindow is Histogram with an explicit sliding-window size; the
// window argument only applies on first creation.
func (r *Registry) HistogramWindow(name string, window int, labels Labels) *Histogram {
	if r == nil {
		return nopHistogram
	}
	return r.lookupHist(name, labels, window).hist
}

func (r *Registry) lookup(name string, labels Labels, k kind) *series {
	return r.getOrCreate(name, labels, k, DefaultWindow)
}

func (r *Registry) lookupHist(name string, labels Labels, window int) *series {
	return r.getOrCreate(name, labels, kindHistogram, window)
}

func (r *Registry) getOrCreate(name string, labels Labels, k kind, window int) *series {
	ls := canonLabels(labels)
	id := name
	if ls != "" {
		id = name + "{" + ls + "}"
	}
	r.mu.RLock()
	s, ok := r.byID[id]
	r.mu.RUnlock()
	if ok {
		if s.kind != k {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", id, s.kind, k))
		}
		return s
	}
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byID[id]; ok { // lost the creation race
		if s.kind != k {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", id, s.kind, k))
		}
		return s
	}
	s = &series{name: name, labels: ls, kind: k}
	switch k {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(window)
	}
	r.byID[id] = s
	r.sorted = append(r.sorted, s)
	return s
}

// canonLabels renders labels in sorted `k1="v1",k2="v2"` form with
// Prometheus escaping of values.
func canonLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		if !nameRE.MatchString(k) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", k))
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// snapshotSeries returns the registered series sorted by family name then
// label string, for deterministic exposition.
func (r *Registry) snapshotSeries() []*series {
	r.mu.RLock()
	out := make([]*series, len(r.sorted))
	copy(out, r.sorted)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func (r *Registry) helpFor(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[name]
}
