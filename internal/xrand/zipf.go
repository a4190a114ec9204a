package xrand

import "math"

// Zipf draws integers in [0, n) with a bounded zipfian distribution:
// P(k) ∝ 1/(k+1)^s. Cache and serving workloads are classically zipfian
// (a few hot keys dominate), so the load generator uses this to produce
// realistic skew; s = 0 degenerates to uniform.
//
// The implementation precomputes the CDF once (O(n) memory, float64 per
// rank) and inverts it by binary search per draw (O(log n)). That favours
// simplicity and determinism over the constant-space rejection-inversion
// samplers; for the load generator's key-space sizes (≤ tens of millions)
// the table is small next to the payloads being served.
//
// Like Rand, a Zipf is NOT safe for concurrent use; give each goroutine
// its own via NewZipf(r.Split(), ...).
type Zipf struct {
	r   *Rand
	cdf []float64 // cdf[k] = P(X <= k), cdf[n-1] == 1
}

// NewZipf builds a zipfian sampler over [0, n) with exponent s >= 0,
// drawing from r. It panics if n <= 0, s < 0, or r is nil.
func NewZipf(r *Rand, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf called with n <= 0")
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic("xrand: NewZipf called with invalid exponent")
	}
	if r == nil {
		panic("xrand: NewZipf called with nil Rand")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // exact, despite rounding
	return &Zipf{r: r, cdf: cdf}
}

// Next draws the next rank in [0, n). Rank 0 is the hottest key.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// Binary search for the first rank whose CDF covers u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
