// Package simclock provides the virtual time base for all performance
// experiments in this repository.
//
// The paper's evaluation reports wall-clock training times measured on a
// GPU/NFS testbed. This reproduction replaces that hardware with a metered
// simulation: every fetch, compute stage and pipeline overlap charges
// duration to a Clock instead of sleeping. Experiments therefore run orders
// of magnitude faster than the systems they model while preserving the time
// *ratios* the paper reports.
package simclock

import "time"

// Clock accumulates simulated time. The zero value is a clock at t=0.
// Clock is not safe for concurrent use; the trainer owns one clock per run.
type Clock struct {
	now time.Duration
}

// Now returns the current simulated time since the start of the run.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative durations are ignored so
// call sites can pass raw residuals without clamping.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// Span measures a simulated interval: s := clock.Start(); ...; d := s.Elapsed().
type Span struct {
	c     *Clock
	start time.Duration
}

// Start opens a measurement span at the current simulated time.
func (c *Clock) Start() Span { return Span{c: c, start: c.now} }

// Elapsed reports the simulated time accumulated since the span started.
func (s Span) Elapsed() time.Duration { return s.c.now - s.start }

// Overlap2 returns the visible cost of a stage that runs concurrently
// with the foreground while budget b of background capacity is available
// to hide it. It models the paper's Fig 12 pipelines: the visible cost is
// the part of hidden that exceeds b.
func Overlap2(hidden, b time.Duration) time.Duration {
	return max(hidden-b, 0)
}
