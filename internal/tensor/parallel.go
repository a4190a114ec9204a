package tensor

import (
	"runtime"
	"sync/atomic"
)

// Matmul kernels partition work by output row into par.For blocks, each on
// a goroutine of its own but the caller's. Partitioning by output row keeps every dst element's
// accumulation order identical to the serial kernel, so parallel results are
// bitwise-identical to serial ones. Small products fall back to the serial
// loop: below minParallelOps multiply-adds the fork/join overhead outweighs
// the spread. A kernel forks across GOMAXPROCS workers, read at call time:
// the width changes how fast a product runs, never its result.

// minParallelOps is the flop count (rows*inner*cols multiply-adds) below
// which kernels stay serial. 1<<16 ≈ a 40x40x40 product, roughly the point
// where starting a goroutine (~1µs) stops mattering.
const minParallelOps = 1 << 16

// kernel dispatch counters, exported via KernelStats for the trainer's
// tensor_kernels_total family.
var (
	parallelKernels atomic.Int64
	serialKernels   atomic.Int64
)

// KernelStats reports how many matmul kernel dispatches ran parallel versus
// serial since process start.
func KernelStats() (parallel, serial int64) {
	return parallelKernels.Load(), serialKernels.Load()
}

// planWorkers decides the fan-out for a kernel producing `rows` output rows
// with `ops` total multiply-adds. Returns 1 for the serial fallback.
func planWorkers(rows, ops int) int {
	w := runtime.GOMAXPROCS(0)
	if w <= 1 || rows < 2 || ops < minParallelOps {
		return 1
	}
	if w > rows {
		w = rows
	}
	return w
}
