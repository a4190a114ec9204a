package simclock

import (
	"testing"
	"time"
)

func TestAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("got %v, want 5s", c.Now())
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-10 * time.Second)
	if c.Now() != time.Second {
		t.Fatalf("negative advance changed clock: %v", c.Now())
	}
}

func TestSpan(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	s := c.Start()
	c.Advance(3 * time.Second)
	if s.Elapsed() != 3*time.Second {
		t.Fatalf("span = %v, want 3s", s.Elapsed())
	}
}

func TestOverlap2(t *testing.T) {
	cases := []struct {
		a, hidden, budget, want time.Duration
	}{
		{10, 5, 8, 10},  // hidden fully absorbed
		{10, 8, 8, 10},  // exactly absorbed
		{10, 12, 8, 14}, // 4 residual
		{10, 12, 0, 22}, // no overlap budget
		{0, 7, 3, 4},
	}
	for _, c := range cases {
		if got := Overlap2(c.a, c.hidden, c.budget); got != c.want {
			t.Errorf("Overlap2(%v,%v,%v) = %v, want %v", c.a, c.hidden, c.budget, got, c.want)
		}
	}
}
