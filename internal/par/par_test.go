package par

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"spidercache/internal/leakcheck"
)

// TestForBlocksRunConcurrently pins For's contract that every block but
// the caller's runs on a goroutine of its own: four blocks that each wait
// for all four to arrive meet, however busy the rest of the process is.
func TestForBlocksRunConcurrently(t *testing.T) {
	leakcheck.Check(t)
	const blocks = 4
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	var arrived atomic.Int32
	all := make(chan struct{})
	met := make([]bool, blocks)
	For(blocks, blocks, func(start, _ int) {
		if arrived.Add(1) == blocks {
			close(all)
		}
		select {
		case <-all:
			met[start] = true
		case <-ctx.Done():
		}
	})
	for b, ok := range met {
		if !ok {
			t.Errorf("block %d waited 3s for the other %d blocks", b, blocks-1)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2, 3, 8, 33} {
		for _, n := range []int{0, 1, 2, 7, 100, 1001} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(start, end int) {
				if start < 0 || end > n || start >= end {
					t.Errorf("workers=%d n=%d: bad block [%d,%d)", workers, n, start, end)
				}
				for i := start; i < end; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForBlocksAreContiguousAndOrderedPerWorkerCount(t *testing.T) {
	leakcheck.Check(t)
	// Block boundaries depend only on (workers, n), never on scheduling.
	n, workers := 103, 4
	var blocks [][2]int
	got := make(chan [2]int, workers)
	For(workers, n, func(start, end int) { got <- [2]int{start, end} })
	close(got)
	for b := range got {
		blocks = append(blocks, b)
	}
	covered := make([]bool, n)
	for _, b := range blocks {
		for i := b[0]; i < b[1]; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	leakcheck.Check(t)
	var total atomic.Int64
	For(4, 8, func(start, end int) {
		for i := start; i < end; i++ {
			For(4, 16, func(s, e int) {
				total.Add(int64(e - s))
			})
		}
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested For executed %d units, want %d", got, 8*16)
	}
}
