package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"spidercache/internal/leakcheck"
	"spidercache/internal/xrand"
)

// sparseMatrix is randomMatrix with exact zeros sprinkled in, so the
// skip-zero fast path is exercised in both serial and parallel kernels.
func sparseMatrix(rows, cols int, rng *xrand.Rand) *Matrix {
	m := randomMatrix(rows, cols, rng)
	for i := 0; i < len(m.Data); i += 17 {
		m.Data[i] = 0
	}
	return m
}

// withProcs runs fn at GOMAXPROCS n, the kernels' fan-out width, restoring
// the previous value afterwards. n == 0 keeps the current value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestParallelKernelsBitwiseIdenticalToSerial(t *testing.T) {
	leakcheck.Check(t)
	rng := xrand.New(7)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},
		{64, 48, 96},   // below the parallel threshold
		{128, 64, 128}, // above it
		{200, 150, 170},
	}
	for _, sh := range shapes {
		a := sparseMatrix(sh.m, sh.k, rng)
		b := sparseMatrix(sh.k, sh.n, rng)
		at := sparseMatrix(sh.k, sh.m, rng) // for ATB: (k x m)ᵀ * (k x n)
		bt := sparseMatrix(sh.n, sh.k, rng) // for ABT: (m x k) * (n x k)ᵀ

		var serMM, serATB, serABT *Matrix
		withProcs(1, func() {
			serMM = MatMul(a, b)
			serATB = MatMulATB(at, b)
			serABT = MatMulABT(a, bt)
		})
		for _, w := range []int{2, 3, 8} {
			withProcs(w, func() {
				for name, pair := range map[string][2]*Matrix{
					"MatMul":    {MatMul(a, b), serMM},
					"MatMulATB": {MatMulATB(at, b), serATB},
					"MatMulABT": {MatMulABT(a, bt), serABT},
				} {
					got, want := pair[0], pair[1]
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("%s %dx%dx%d w=%d: shape %dx%d want %dx%d",
							name, sh.m, sh.k, sh.n, w, got.Rows, got.Cols, want.Rows, want.Cols)
					}
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s %dx%dx%d w=%d: element %d = %v, serial %v",
								name, sh.m, sh.k, sh.n, w, i, got.Data[i], want.Data[i])
						}
					}
				}
			})
		}
	}
}

// TestKernelsConcurrentCallers: the trainer runs backward's kernels on one
// goroutine while batch scoring runs par.For on another, so two callers
// fork at once. Each must still get the serial result bit for bit, and
// every block's goroutine must be gone when the kernels return.
func TestKernelsConcurrentCallers(t *testing.T) {
	leakcheck.Check(t)
	rng := xrand.New(13)
	type job struct{ a, b, at, bt, mm, atb, abt *Matrix }
	jobs := make([]job, 2)
	for i := range jobs {
		j := &jobs[i]
		j.a, j.b = sparseMatrix(128+8*i, 64, rng), sparseMatrix(64, 96, rng)
		j.at, j.bt = sparseMatrix(64, 128+8*i, rng), sparseMatrix(96, 64, rng)
		withProcs(1, func() {
			j.mm, j.atb, j.abt = MatMul(j.a, j.b), MatMulATB(j.at, j.b), MatMulABT(j.a, j.bt)
		})
	}
	same := func(got, want *Matrix) bool {
		if got.Rows != want.Rows || got.Cols != want.Cols {
			return false
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	withProcs(4, func() {
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				for it := 0; it < 20; it++ {
					if !same(MatMul(j.a, j.b), j.mm) || !same(MatMulATB(j.at, j.b), j.atb) || !same(MatMulABT(j.a, j.bt), j.abt) {
						t.Errorf("concurrent caller %d, iteration %d: result differs from serial", i, it)
						return
					}
				}
			}(jobs[i])
		}
		wg.Wait()
	})
}

func TestPlanWorkersSerialFallback(t *testing.T) {
	withProcs(8, func() {
		if w := planWorkers(1, 1<<20); w != 1 {
			t.Fatalf("single row planned %d workers", w)
		}
		if w := planWorkers(64, 100); w != 1 {
			t.Fatalf("tiny product planned %d workers", w)
		}
		if w := planWorkers(4, 1<<20); w != 4 {
			t.Fatalf("4 rows planned %d workers, want 4 (capped at rows)", w)
		}
		if w := planWorkers(512, 1<<27); w != 8 {
			t.Fatalf("large product planned %d workers, want 8", w)
		}
	})
}

func TestKernelStatsAdvance(t *testing.T) {
	rng := xrand.New(11)
	a := sparseMatrix(128, 128, rng)
	b := sparseMatrix(128, 128, rng)
	withProcs(4, func() {
		p0, s0 := KernelStats()
		MatMul(a, b) // 2M ops: parallel
		small := sparseMatrix(8, 8, rng)
		MatMul(small, small) // serial fallback
		p1, s1 := KernelStats()
		if p1 <= p0 {
			t.Fatalf("parallel dispatch count did not advance: %d -> %d", p0, p1)
		}
		if s1 <= s0 {
			t.Fatalf("serial dispatch count did not advance: %d -> %d", s0, s1)
		}
	})
}

func benchMatMul(b *testing.B, size, procs int) {
	rng := xrand.New(42)
	x := sparseMatrix(size, size, rng)
	y := sparseMatrix(size, size, rng)
	withProcs(procs, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMul(x, y)
		}
	})
	b.SetBytes(int64(size * size * 8))
}

// BenchmarkMatMulSerial is the single-core baseline at 512x512.
func BenchmarkMatMulSerial(b *testing.B) { benchMatMul(b, 512, 1) }

// BenchmarkMatMulParallel runs the same 512x512 product across the worker
// pool (all cores). Compare ns/op against BenchmarkMatMulSerial; on >= 4
// cores the parallel kernel is expected to be >= 2x faster.
func BenchmarkMatMulParallel(b *testing.B) { benchMatMul(b, 512, 0) }

// BenchmarkMatMulWorkers sweeps explicit worker counts at 512x512.
func BenchmarkMatMulWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) { benchMatMul(b, 512, w) })
	}
}
