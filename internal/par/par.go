// Package par provides the repository's shared CPU worker pool: a small,
// dependency-free fork/join primitive used by the parallel hot paths
// (tensor kernels, semantic-graph batch scoring). Callers pass
// runtime.GOMAXPROCS(0), read where they fork, as the width, so GOMAXPROCS
// is the one cap on host parallelism.
//
// Design points:
//
//   - For splits an index range into contiguous blocks, so callers that
//     partition output rows keep bitwise-identical results regardless of
//     how many workers execute the blocks.
//   - Work is handed to a pool worker only when one is parked and ready
//     (unbuffered channel + non-blocking send); otherwise the block runs
//     inline on the caller. Tasks are therefore never queued, which makes
//     nested or reentrant For calls deadlock-free by construction.
//   - The caller always executes the first block itself, so For never
//     leaves the submitting goroutine idle while workers run.
//   - Pool/inline execution counters are exported for the worker-pool
//     utilisation telemetry recorded by internal/trainer.
package par

import (
	"sync"
	"sync/atomic"
)

// task is one contiguous block of a For call.
type task struct {
	fn         func(start, end int)
	start, end int
	wg         *sync.WaitGroup
}

var (
	poolMu    sync.Mutex
	poolSize  int
	taskCh    = make(chan task) // unbuffered: hand-off only, never queued
	poolRuns  atomic.Int64
	inlineRun atomic.Int64
)

// ensureWorkers grows the pool to at least n parked workers. Workers are
// cheap when idle (a parked goroutine), so the pool only ever grows.
func ensureWorkers(n int) {
	if n < 1 {
		n = 1
	}
	poolMu.Lock()
	for poolSize < n {
		poolSize++
		go worker()
	}
	poolMu.Unlock()
}

func worker() {
	for t := range taskCh {
		t.fn(t.start, t.end)
		poolRuns.Add(1)
		t.wg.Done()
	}
}

// Stats reports how many blocks have been executed by pool workers versus
// inline on the submitting goroutine since process start. The ratio
// pool/(pool+inline) is the pool utilisation exported via telemetry.
func Stats() (pool, inline int64) {
	return poolRuns.Load(), inlineRun.Load()
}

// For executes fn over [0, n) split into at most workers contiguous blocks.
// Blocks run concurrently on pool workers when any are idle; the first block
// (and any block no worker is ready to take) runs on the calling goroutine.
// For returns after every block has completed. workers <= 1 or n <= 1 runs
// serially with no synchronisation.
func For(workers, n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		fn(0, n)
		return
	}
	ensureWorkers(workers - 1)

	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := chunk; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		select {
		case taskCh <- task{fn: fn, start: start, end: end, wg: &wg}:
		default:
			// No worker parked: run the block on the caller rather than
			// queueing, so nested For calls can never deadlock.
			fn(start, end)
			inlineRun.Add(1)
			wg.Done()
		}
	}
	fn(0, chunk)
	inlineRun.Add(1)
	wg.Wait()
}
