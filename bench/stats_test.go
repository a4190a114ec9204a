package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.01, 1}, {0, 1}, {1, 10}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// One bad second must not move the p99, and must not hide in the p50
// either; a trailing sliver of a second is left out of the p99.
func TestSummarizeMedianOfSeconds(t *testing.T) {
	second := func(n int, v float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = v
		}
		return b
	}
	spike := second(1000, 100)
	for i := 0; i < 50; i++ {
		spike[i] = 9000 // 5% of one second stalled
	}
	s := summarize([][]float64{second(1000, 100), spike, second(1000, 120), second(5, 50000)})
	if s.Samples != 3005 {
		t.Errorf("samples = %d", s.Samples)
	}
	if s.P50 != 100 {
		t.Errorf("p50 = %v, want 100", s.P50)
	}
	if s.P99 != 120 {
		t.Errorf("p99 = %v, want the median of {100, 9000, 120}; the 5-sample sliver is left out", s.P99)
	}
	if s.Max != 50000 {
		t.Errorf("max = %v", s.Max)
	}
	if got := shareWithin([][]float64{second(90, 100), second(10, 9000)}, 1000, 200); got != 0.45 {
		t.Errorf("shareWithin = %v, want 90 of the 200 sent", got)
	}
}

// A phase's windows: a stall that spoils fewer than three windows in four
// does not move the latency, and the p99 is taken over whole seconds.
func TestSummarizeWindowsHoldsThroughAStall(t *testing.T) {
	var windows [][]float64
	for w := 0; w < 20; w++ { // two seconds
		n, v := 100, 200.0
		if w >= 6 && w < 16 { // half the phase stalled: fewer answers, each slow
			n, v = 40, 90000
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = v
		}
		b[0] = v + 1000 // one slow request per window: the second's p99
		windows = append(windows, b)
	}
	s := summarizeWindows(windows)
	if s.P50 != 200 {
		t.Errorf("p50 = %v, want the quiet windows' 200", s.P50)
	}
	// Second 0 holds 6 quiet and 4 stalled windows, second 1 the reverse;
	// both p99s are stalled values and their median lies between them.
	if s.P99 != 90000 {
		t.Errorf("p99 = %v, want 90000", s.P99)
	}
	if s.Samples != 10*100+10*40 || s.Max != 91000 {
		t.Errorf("samples = %d, max = %v", s.Samples, s.Max)
	}
	if got := medianRate(windows[:16], 0.1); got != 400 {
		t.Errorf("medianRate = %v, want the 40 answers per 100 ms of the stalled majority", got)
	}
	if got := medianRate(windows, 0.1); got != 700 {
		t.Errorf("medianRate = %v, want halfway between 400 and 1000 for an even split", got)
	}
	if got := len(coarsen(windows, windowsPerSecond)); got != 2 {
		t.Errorf("coarsen gave %d seconds", got)
	}
	if got := windowCount(5.96); got != 60 {
		t.Errorf("windowCount(5.96) = %d", got)
	}
}

// The values are Python's: statistics.quantiles(xs, n=4) and median.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// quantiles -> [10.375, 11.75, 13.25], median 11.75
	want := (13.25 - 10.375) / 11.75
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Two values: quantiles -> [0.75, 1.5, 2.25] by extrapolation.
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-value spread = %v, want %v", got, want)
	}
}
