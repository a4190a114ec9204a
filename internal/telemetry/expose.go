package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Counters and gauges become single samples;
// histograms are rendered as summaries with p50/p95/p99 quantile samples
// over the sliding window plus cumulative _sum and _count. A nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var lastFamily string
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			lastFamily = s.name
			help := r.helpFor(s.name)
			if help == "" && s.kind == kindHistogram {
				help = "sliding-window latency summary (p50/p95/p99)"
			}
			if help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, escapeHelp(help)); err != nil {
					return err
				}
			}
			typ := s.kind.String()
			if s.kind == kindHistogram {
				typ = "summary"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, typ); err != nil {
				return err
			}
		}
		if err := writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

// Prometheus returns the text exposition as a string.
func (r *Registry) Prometheus() string {
	var b strings.Builder
	r.WritePrometheus(&b) // strings.Builder never errors
	return b.String()
}

func writeSeries(w io.Writer, s *series) error {
	switch s.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", s.id(), s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", s.id(), formatFloat(s.gauge.Value()))
		return err
	case kindHistogram:
		snap := s.hist.Snapshot()
		for _, qv := range []struct {
			q string
			v float64
		}{{"0.5", snap.P50}, {"0.95", snap.P95}, {"0.99", snap.P99}} {
			if _, err := fmt.Fprintf(w, "%s %s\n", withLabel(s, "quantile", qv.q), formatFloat(qv.v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", suffixed(s, "_sum"), formatFloat(snap.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", suffixed(s, "_count"), snap.Count)
		return err
	}
	return nil
}

// withLabel renders the series id with one extra label appended.
func withLabel(s *series, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if s.labels == "" {
		return s.name + "{" + extra + "}"
	}
	return s.name + "{" + s.labels + "," + extra + "}"
}

// suffixed renders the series id with a name suffix (for _sum/_count).
func suffixed(s *series, suffix string) string {
	if s.labels == "" {
		return s.name + suffix
	}
	return s.name + suffix + "{" + s.labels + "}"
}

func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Snapshot is a point-in-time view of a registry's counters, the part the
// benchmark harness reads. Map keys are full series identities
// (`name{label="value"}`).
type Snapshot struct {
	Counters map[string]int64
}

// Snapshot captures every registered counter. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return snap
	}
	for _, s := range r.snapshotSeries() {
		if s.kind == kindCounter {
			snap.Counters[s.id()] = s.counter.Value()
		}
	}
	return snap
}
