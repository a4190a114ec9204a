package kvserver

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spidercache/internal/telemetry"
)

func TestMetricsVerbOverWire(t *testing.T) {
	srv := startServer(t, 16)
	c := dial(t, srv)

	if err := c.Set("img:1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("img:1"); err != nil || !ok {
		t.Fatalf("Get hit: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.Get("img:missing"); err != nil || ok {
		t.Fatalf("Get miss: ok=%v err=%v", ok, err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		`kv_ops_total{op="get",result="hit"} 1`,
		`kv_ops_total{op="get",result="miss"} 1`,
		`kv_ops_total{op="set",result="stored"} 1`,
		`kv_op_seconds{op="get",quantile="0.5"}`,
		`kv_op_seconds{op="get",quantile="0.95"}`,
		`kv_op_seconds{op="get",quantile="0.99"}`,
		`kv_op_seconds_count{op="get"} 2`,
		"# TYPE kv_ops_total counter",
		"# TYPE kv_op_seconds summary",
		"kv_items 1",
		"kv_hits 1",
		"kv_misses 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("METRICS output missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("host_custom_gauge", nil).Set(42)
	srv := serve(t, storeConfig(4), reg, nil)
	if srv.Metrics() != reg {
		t.Fatal("server did not adopt the shared registry")
	}

	c := dial(t, srv)
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// The METRICS verb serves host-registered series alongside kv_* ones.
	if !strings.Contains(text, "host_custom_gauge 42") {
		t.Fatalf("shared series missing:\n%s", text)
	}
	if !strings.Contains(text, "kv_items") {
		t.Fatalf("kv series missing:\n%s", text)
	}
}

// TestMetricsShardGauges: METRICS exports one kv_shard_items gauge per
// store shard, and their sum equals kv_items — shard balance is visible.
func TestMetricsShardGauges(t *testing.T) {
	c := dial(t, serve(t, storeConfig(256), nil, nil))
	for i := 0; i < 64; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf(`kv_shard_items{shard="%d"}`, i)
		v, ok := scrapeGauge(text, name)
		if !ok {
			t.Fatalf("METRICS missing %s:\n%s", name, text)
		}
		total += v
	}
	if total != 64 {
		t.Fatalf("shard gauges sum to %v, want 64", total)
	}
	if items, ok := scrapeGauge(text, "kv_items"); !ok || items != 64 {
		t.Fatalf("kv_items = %v (ok=%v), want 64", items, ok)
	}
}

// scrapeGauge pulls one sample value out of Prometheus exposition text.
func scrapeGauge(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestMetricsPipelineDepth: pipelined commands served under one flush are
// visible in kv_pipeline_depth and kv_net_flushes_total.
func TestMetricsPipelineDepth(t *testing.T) {
	srv := startServer(t, 64)
	c := dial(t, srv)
	p := c.Pipeline()
	for i := 0; i < 8; i++ {
		p.Set(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kv_pipeline_depth_count",
		`kv_pipeline_depth{quantile="0.5"}`,
		"kv_net_flushes_total",
		`kv_ops_total{op="set",result="stored"} 8`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("METRICS missing %q:\n%s", want, text)
		}
	}
	for _, gone := range []string{`op="mget"`, `op="mset"`} {
		if strings.Contains(text, gone) {
			t.Fatalf("METRICS still carries %s, a deleted verb:\n%s", gone, text)
		}
	}
	// All 8 pipelined SETs should have been answered under few flushes:
	// the max observed depth must exceed 1 for the coalescing to be real.
	if depth, ok := scrapeGauge(text, `kv_pipeline_depth{quantile="0.99"}`); !ok || depth < 2 {
		t.Fatalf("pipeline depth p99 = %v (ok=%v), want >= 2 — flush coalescing not engaged", depth, ok)
	}
}

func TestMetricsConcurrentWithTraffic(t *testing.T) {
	srv := startServer(t, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := dial(t, srv)
			for i := 0; i < 50; i++ {
				key := "k" + string(rune('a'+g))
				if err := c.Set(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Metrics(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	c := dial(t, srv)
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `kv_ops_total{op="set",result="stored"} 200`) {
		t.Fatalf("expected 200 stored sets:\n%s", text)
	}
}
