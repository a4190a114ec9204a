package main

import "testing"

func TestLadderRule(t *testing.T) {
	good := stepOutcome{rate: 40000, p99US: 480, limitUS: 1000, lateRatio: 0.002, backlogEnd: 30}
	if !good.ok() {
		t.Fatal("a step inside every limit must hold")
	}
	for name, mutate := range map[string]func(*stepOutcome){
		"p99 over the limit":  func(s *stepOutcome) { s.p99US = 1001 },
		"generator late":      func(s *stepOutcome) { s.lateRatio = 0.011 },
		"backlog growing":     func(s *stepOutcome) { s.backlogEnd = 81 }, // 2 * 40000/s * 1ms = 80 allowed
		"a request failed":    func(s *stepOutcome) { s.failed = 1 },
		"backlog at low rate": func(s *stepOutcome) { s.rate = 1000; s.backlogEnd = 17 }, // floor of 16
	} {
		s := good
		mutate(&s)
		if s.ok() {
			t.Errorf("%s: step must not hold", name)
		}
	}

	step := func(rate float64, ok bool) stepOutcome {
		s := good
		s.rate = rate
		if !ok {
			s.p99US = 5000
		}
		return s
	}
	if got := maxRateOK([]stepOutcome{step(20000, true), step(40000, true), step(80000, false), step(160000, false)}); got != 40000 {
		t.Errorf("max rate = %v, want 40000", got)
	}
	// A higher step that happens to pass does not count past a failed one.
	if got := maxRateOK([]stepOutcome{step(20000, true), step(40000, false), step(80000, true)}); got != 20000 {
		t.Errorf("max rate = %v, want 20000", got)
	}
	if got := maxRateOK([]stepOutcome{step(20000, false)}); got != 0 {
		t.Errorf("max rate = %v, want 0", got)
	}
}
