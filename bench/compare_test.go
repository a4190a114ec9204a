package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "peak_ops_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, cand []float64
		want       string
	}{
		{"slower within the bound", lower, []float64{100, 101}, []float64{108, 109}, "ok"},
		{"slower beyond the bound", lower, []float64{100, 101}, []float64{115, 116}, "REGRESSION"},
		{"faster", lower, []float64{100, 101}, []float64{50, 51}, "ok"},
		{"less throughput beyond the bound", higher, []float64{1000}, []float64{880}, "REGRESSION"},
		{"more throughput", higher, []float64{1000}, []float64{1500}, "ok"},
		{"sets disagree with each other", lower, []float64{100, 130}, []float64{200, 201}, "unresolved"},
		{"candidate has no value", lower, []float64{100}, nil, "missing"},
	} {
		if _, got := verdict(tc.m, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if worse, _ := verdict(higher, []float64{1000}, []float64{900}); worse < 0.0999 || worse > 0.1001 {
		t.Errorf("worse = %v, want 0.10", worse)
	}
	if got := rangeSpread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("rangeSpread = %v", got)
	}
}
