// Package par is the module's one fork/join primitive, used by every
// parallel hot path: tensor kernels, semantic-graph batch scoring and the
// hnsw settle. Callers pass runtime.GOMAXPROCS(0), read where they fork, as
// the width, so GOMAXPROCS is the one cap on host parallelism.
//
// For splits an index range into contiguous blocks whose boundaries depend
// only on (workers, n), so callers that partition output rows keep
// bitwise-identical results however the blocks are scheduled. The caller
// runs the first block; every other block gets a goroutine of its own, so
// nested For calls never wait on a shared worker, and For holds no state.
package par

import "sync"

// For executes fn over [0, n) split into at most workers contiguous blocks.
// The first block runs on the calling goroutine and every other block on a
// goroutine started for it; For returns after every block has completed.
// workers <= 1 or n <= 1 runs serially with no synchronisation.
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
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := chunk; start < n; start += chunk {
		end := min(start+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(start, end)
		}()
	}
	fn(0, chunk)
	wg.Wait()
}
