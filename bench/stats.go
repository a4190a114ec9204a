package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of an ascending slice
// (0 for an empty one).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantileOf returns the nearest-rank q-quantile of xs, leaving xs
// untouched.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, q)
}

// latencySummary is what a phase reports about its latencies.
type latencySummary struct {
	Samples int
	P50     float64
	P99     float64
	Max     float64
}

// bucketPercentiles returns every bucket's own p50 and p99, with the
// sample count and the maximum over all buckets. Buckets holding fewer
// than a tenth of the fullest bucket's samples (a trailing sliver, a
// stalled window of a closed loop) have no percentiles.
func bucketPercentiles(buckets [][]float64) (p50s, p99s []float64, samples int, top float64) {
	fullest := 0
	for _, b := range buckets {
		samples += len(b)
		fullest = max(fullest, len(b))
	}
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sb := append([]float64(nil), b...)
		sort.Float64s(sb)
		top = max(top, sb[len(sb)-1])
		if len(b)*10 >= fullest {
			p50s = append(p50s, percentile(sb, 0.50))
			p99s = append(p99s, percentile(sb, 0.99))
		}
	}
	return p50s, p99s, samples, top
}

// summarize computes the summary of samples that are already in buckets
// (one bucket: its plain percentiles). Both percentiles are the median
// over buckets of the bucket's own percentile: the steady-state value,
// which a bucket spent behind a scheduler hiccup or an index rebuild cannot
// move; what such stretches cost is counted by the SLO ratio instead.
func summarize(buckets [][]float64) latencySummary {
	p50s, p99s, samples, top := bucketPercentiles(buckets)
	return latencySummary{Samples: samples, P50: median(p50s), P99: median(p99s), Max: top}
}

// A load phase files its samples by time in windows of 100 ms. A stall of
// half a second (an index rebuild, a slow stretch of the host) then spoils
// a few windows of many instead of one second of six, and a statistic over
// windows does not flip with where the stall happened to fall.
const windowsPerSecond = 10

// quietShare is the quantile over a phase's windows that stands for the
// phase's median latency: the lower quartile of the windows' medians.
// What the host's other tenants take from the machine only ever adds to a
// window's latencies, so the lower quartile is the program on a quiet
// host, and it holds while up to three windows in four are disturbed,
// where a median over windows gives way at two.
const quietShare = 0.25

// summarizeWindows is the summary of a load phase: the p50 is the lower
// quartile over the 100 ms windows of the window's median, the p99 the
// median over whole seconds of the second's p99, so that every p99 has
// enough samples beyond it.
func summarizeWindows(windows [][]float64) latencySummary {
	p50s, _, samples, top := bucketPercentiles(windows)
	_, p99s, _, _ := bucketPercentiles(coarsen(windows, windowsPerSecond))
	return latencySummary{Samples: samples, P50: quantileOf(p50s, quietShare), P99: median(p99s), Max: top}
}

// coarsen merges every n consecutive buckets into one.
func coarsen(buckets [][]float64, n int) [][]float64 {
	out := make([][]float64, (len(buckets)+n-1)/n)
	for i, b := range buckets {
		out[i/n] = append(out[i/n], b...)
	}
	return out
}

// windowCount is the number of windows a phase of this length files its
// samples in.
func windowCount(seconds float64) int {
	return max(1, int(seconds*windowsPerSecond+0.5))
}

// shareWithin returns the fraction of samples at or under limit, out of
// total (samples that never got an answer count in total only).
func shareWithin(buckets [][]float64, limit float64, total int) float64 {
	if total == 0 {
		return 0
	}
	ok := 0
	for _, b := range buckets {
		for _, v := range b {
			if v <= limit {
				ok++
			}
		}
	}
	return float64(ok) / float64(total)
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles computed as Python's
// statistics.quantiles(xs, n=4) does (exclusive method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// medianRate is the median over windows of samples per second, for
// windows of the given width: a closed loop's typical throughput, which the
// stalled windows cannot move while they are the fewer. (The windows' rates
// scatter to both sides, a slow window's backlog filling the next, so no
// quartile of them is steadier than their median: measured.)
func medianRate(windows [][]float64, widthS float64) float64 {
	if widthS <= 0 {
		return 0
	}
	rates := make([]float64, len(windows))
	for i, w := range windows {
		rates[i] = float64(len(w)) / widthS
	}
	return median(rates)
}
