package main

import "testing"

const metricsText = `# HELP kv_items resident items
# TYPE kv_items gauge
kv_items 16384
# TYPE kv_op_seconds summary
kv_op_seconds{op="get",quantile="0.5"} 6.06e-07
kv_op_seconds_sum{op="get"} 2.334e-06
kv_op_seconds_count{op="get"} 2
kv_ops_total{op="get",result="hit"} 1
kv_semantic_hits_total{result="near"} 0

garbage line without a number
kv_shard_items{shard="0"} 1
`

func TestParseMetrics(t *testing.T) {
	m := parseMetrics(metricsText)
	for id, want := range map[string]float64{
		"kv_items":                               16384,
		`kv_op_seconds{op="get",quantile="0.5"}`: 6.06e-07,
		`kv_op_seconds_count{op="get"}`:          2,
		`kv_ops_total{op="get",result="hit"}`:    1,
		`kv_shard_items{shard="0"}`:              1,
	} {
		if got, ok := m[id]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", id, got, ok, want)
		}
	}
	if len(m) != 7 {
		t.Errorf("parsed %d series, want 7: %v", len(m), m)
	}
}

func TestScrapeArithmetic(t *testing.T) {
	before := []series{{"ops": 10, "p50": 0}, {"ops": 5}}
	after := []series{{"ops": 110, "p50": 4}, {"ops": 25, "p50": 0}, {"ops": 7, "p50": 2}} // a node that joined
	if got := sumDelta(before, after, "ops"); got != 100+20+7 {
		t.Errorf("sumDelta = %v", got)
	}
	if got := sumLast(after, "ops"); got != 142 {
		t.Errorf("sumLast = %v", got)
	}
	if got := meanNonZero(after, "p50"); got != 3 {
		t.Errorf("meanNonZero = %v, want the mean over the two nodes that served the op", got)
	}
	if got := meanNonZero(after, "absent"); got != 0 {
		t.Errorf("meanNonZero of an absent series = %v", got)
	}
}
