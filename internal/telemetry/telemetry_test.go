package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Get-or-create from every goroutine: the getter itself must
			// be race-free, not just the instrument.
			c := reg.Counter("reqs_total", Labels{"source": "cache"})
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	got := reg.Counter("reqs_total", Labels{"source": "cache"}).Value()
	if got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base float64) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(base + float64(j))
			}
		}(float64(i))
	}
	wg.Wait()
	if h.Snapshot().Count != 8*500 {
		t.Fatalf("count = %d, want %d", h.Snapshot().Count, 8*500)
	}
}

// oracleQuantile is the independent sorted-slice reference: nearest rank,
// element ceil(q*n)-1 of the ascending order.
func oracleQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func TestHistogramQuantileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 100, 1000, defaultWindow} {
		h := newHistogram(defaultWindow)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			h.Observe(xs[i])
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0} {
			if got, want := rank(sorted, q), oracleQuantile(xs, q); got != want {
				t.Fatalf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
		checkSnapshotQuantiles(t, h.Snapshot(), xs)
	}
}

// checkSnapshotQuantiles checks a snapshot's p50/p95/p99 against the oracle
// over the observations its window holds.
func checkSnapshotQuantiles(t *testing.T, snap HistogramSnapshot, window []float64) {
	t.Helper()
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.50, snap.P50}, {0.95, snap.P95}, {0.99, snap.P99}} {
		if want := oracleQuantile(window, c.q); c.got != want {
			t.Fatalf("n=%d q=%v: snapshot %v, want %v", len(window), c.q, c.got, want)
		}
	}
}

func TestHistogramWindowEviction(t *testing.T) {
	const win = 64
	h := newHistogram(win)
	total := 10 * win
	for i := 0; i < total; i++ {
		h.Observe(float64(i))
	}
	// Window holds the last 64 observations: 576..639.
	tail := make([]float64, win)
	for i := range tail {
		tail[i] = float64(total - win + i)
	}
	snap := h.Snapshot()
	checkSnapshotQuantiles(t, snap, tail)
	if h.Snapshot().Count != int64(total) {
		t.Fatalf("cumulative count %d, want %d", h.Snapshot().Count, total)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := newHistogram(8)
	snap := h.Snapshot()
	if snap != (HistogramSnapshot{}) {
		t.Fatalf("empty snapshot not zero: %+v", snap)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Describe("lookups_total", "serving-tier lookups")
	reg.Counter("lookups_total", Labels{"source": "cache"}).Add(3)
	reg.Counter("lookups_total", Labels{"source": "miss"}).Inc()
	reg.Gauge("imp_ratio", nil).Set(0.875)
	h := reg.Histogram("fetch_seconds", nil)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	text := reg.Prometheus()

	for _, want := range []string{
		"# HELP lookups_total serving-tier lookups\n",
		"# TYPE lookups_total counter\n",
		`lookups_total{source="cache"} 3` + "\n",
		`lookups_total{source="miss"} 1` + "\n",
		"# TYPE imp_ratio gauge\n",
		"imp_ratio 0.875\n",
		"# TYPE fetch_seconds summary\n",
		"p50/p95/p99", // default histogram HELP advertises quantiles
		`fetch_seconds{quantile="0.5"} 0.05` + "\n",
		`fetch_seconds{quantile="0.95"} 0.095` + "\n",
		`fetch_seconds{quantile="0.99"} 0.099` + "\n",
		"fetch_seconds_count 100\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("weird_total", Labels{"path": `a"b\c` + "\nd"}).Inc()
	text := reg.Prometheus()
	want := `weird_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing %q:\n%s", want, text)
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lookups_total", Labels{"source": "substitute"}).Add(7)
	reg.Gauge("score_std", nil).Set(1.5)
	reg.Histogram("op_seconds", Labels{"op": "get"}).Observe(0.25)

	snap := reg.Snapshot()
	if snap.Counters[`lookups_total{source="substitute"}`] != 7 {
		t.Fatalf("counter missing from snapshot: %+v", snap.Counters)
	}
	if got := reg.Gauge("score_std", nil).Value(); got != 1.5 {
		t.Fatalf("gauge reads %v, want 1.5", got)
	}
	hs := reg.Histogram("op_seconds", Labels{"op": "get"}).Snapshot()
	if hs.Count != 1 || hs.P50 != 0.25 || hs.P99 != 0.25 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var reg *Registry
	reg.Counter("a_total", nil).Inc()
	reg.Gauge("g", nil).Set(1)
	reg.Histogram("h_seconds", nil).Observe(2)
	reg.Describe("a_total", "ignored")
	if got := reg.Prometheus(); got != "" {
		t.Fatalf("nil exposition = %q, want empty", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
	if reg.Families() != nil {
		t.Fatalf("nil Families = %v, want nil", reg.Families())
	}
}

func TestGetOrCreateIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", Labels{"k": "v"})
	b := reg.Counter("x_total", Labels{"k": "v"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c := reg.Counter("x_total", Labels{"k": "w"}); c == a {
		t.Fatal("distinct labels shared an instrument")
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	reg.Gauge("dual", nil)
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}
