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
		hidden, budget, want time.Duration
	}{
		{5, 8, 0},   // hidden fully absorbed
		{8, 8, 0},   // exactly absorbed
		{12, 8, 4},  // 4 residual
		{12, 0, 12}, // no overlap budget
		{7, 3, 4},
	}
	for _, c := range cases {
		if got := Overlap2(c.hidden, c.budget); got != c.want {
			t.Errorf("Overlap2(%v,%v) = %v, want %v", c.hidden, c.budget, got, c.want)
		}
	}
}
