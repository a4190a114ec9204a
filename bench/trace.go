package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. A span with Count > 1 aggregates that many
// calls made inside its parent: Start and End are then the parent's and
// BusyUS is the time the calls took together (per-sample calls are folded
// into one child span per batch, which bounds the trace's size).
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0: no parent
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // since the trace began
	EndUS   int64          `json:"end_us"`
	BusyUS  int64          `json:"busy_us,omitempty"`
	Count   int64          `json:"count,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// sample is one once-a-second reading of the servers, taken from outside.
type sample struct {
	AtUS     int64   `json:"at_us"`
	Ops      float64 `json:"ops"`       // requests served since the last sample
	CPUS     float64 `json:"cpu_s"`     // server CPU seconds since the last sample
	Items    float64 `json:"items"`     // resident items
	StoreHit float64 `json:"store_hit"` // store hits since the last sample
}

// traceLog collects spans in memory and is written out when the workload
// ends.
type traceLog struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Spans    []span   `json:"spans"`
	Samples  []sample `json:"samples,omitempty"`

	mu    sync.Mutex
	start time.Time
}

func newTraceLog(workload string, seed uint64) *traceLog {
	return &traceLog{Workload: workload, Seed: seed, start: time.Now()}
}

func (t *traceLog) since(at time.Time) int64 { return at.Sub(t.start).Microseconds() }

// span records one interval and returns its id for children to name.
func (t *traceLog) span(name string, parent int, start, end time.Time, busy time.Duration, count int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: t.since(start), EndUS: t.since(end),
		BusyUS: busy.Microseconds(), Count: count,
	})
	return id
}

// phaseSpan records a load phase that has just ended, with what the
// generator saw of it.
func (t *traceLog) phaseSpan(r *phaseResult, lat latencySummary) {
	end := time.Now()
	id := t.span(r.name, 0, end.Add(-r.elapsed), end, 0, r.answered)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Spans[id-1].Attrs = map[string]any{
		"rate": r.rate, "sent": r.sent, "failed": r.failed, "ops_s": r.opsPerSec(),
		"p50_us": lat.P50, "p99_us": lat.P99, "max_us": lat.Max,
		"late": r.late, "backlog_end": r.backlogEnd, "gen_cpu_s": r.genCPU,
	}
}

// startScraper samples the servers every interval until the returned
// function is called; that call returns once the scraper has stopped.
func (t *traceLog) startScraper(addrs []string, pids []int, every time.Duration) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		prev, _ := scrapeAll(addrs)
		prevCPU := cpuSecondsAll(pids)
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				cur, err := scrapeAll(addrs)
				if err != nil {
					continue // a missed sample is a gap in the series, not a failure
				}
				cpu := cpuSecondsAll(pids)
				var ops float64
				for _, op := range []string{"get", "set", "nget", "eset", "rset"} {
					ops += sumDelta(prev, cur, `kv_op_seconds_count{op="`+op+`"}`)
				}
				t.mu.Lock()
				t.Samples = append(t.Samples, sample{
					AtUS: t.since(now), Ops: ops, CPUS: cpu - prevCPU,
					Items: sumLast(cur, "kv_items"), StoreHit: sumDelta(prev, cur, "kv_hits"),
				})
				t.mu.Unlock()
				prev, prevCPU = cur, cpu
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *traceLog) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.Workload+".json"), b, 0o644)
}
