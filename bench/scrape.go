package main

import (
	"fmt"
	"strconv"
	"strings"
)

// series is one scrape of a spiderkv node's METRICS reply: series identity
// (`name{label="v"}` exactly as exposed) to value.
type series map[string]float64

// parseMetrics reads the Prometheus text exposition format, skipping
// comments and lines it cannot read as `<identity> <number>`.
func parseMetrics(text string) series {
	out := series{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// scrape fetches and parses one node's METRICS.
func scrape(addr string) (series, error) {
	rep, err := roundTrip(addr, "METRICS")
	if err != nil {
		return nil, err
	}
	if rep.Kind != replyMetrics {
		return nil, fmt.Errorf("METRICS %s: unexpected reply kind %d", addr, rep.Kind)
	}
	return parseMetrics(string(rep.Body)), nil
}

// scrapeAll scrapes every node, in order.
func scrapeAll(addrs []string) ([]series, error) {
	out := make([]series, len(addrs))
	for i, a := range addrs {
		s, err := scrape(a)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sumDelta adds up after-before of one series over all nodes (counters and
// cumulative sums over a measured window).
func sumDelta(before, after []series, id string) float64 {
	var d float64
	for i := range after {
		d += after[i][id]
		if i < len(before) {
			d -= before[i][id]
		}
	}
	return d
}

// sumLast adds up the latest value of one series over all nodes (gauges).
func sumLast(after []series, id string) float64 {
	var s float64
	for _, m := range after {
		s += m[id]
	}
	return s
}

// meanNonZero averages one series over the nodes where it is non-zero: a
// quantile of an op a node never served reads 0 and must not dilute the
// others.
func meanNonZero(after []series, id string) float64 {
	var s float64
	n := 0
	for _, m := range after {
		if v := m[id]; v != 0 {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
