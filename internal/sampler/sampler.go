// Package sampler implements the epoch-order generators used by the
// evaluated policies:
//
//   - Uniform:     PyTorch's default random sampling — every sample exactly
//     once per epoch, shuffled (CoorDL, Baseline, iCache)
//   - Multinomial: biased sampling with replacement from a mean-smoothed
//     weight vector, the torch.multinomial analogue SpiderCache uses over
//     its graph-based global scores (and SHADE over its loss ranks)
//
// All samplers are deterministic given their seed.
package sampler

import (
	"fmt"

	"spidercache/internal/xrand"
)

// Sampler produces the training order for one epoch over n samples.
type Sampler interface {
	// EpochOrder returns the sample IDs to visit in epoch order. Length is
	// always the dataset size; IDs may repeat for with-replacement
	// samplers.
	EpochOrder(epoch int) []int
}

// Uniform visits each sample exactly once per epoch in a fresh random
// permutation — the access pattern that defeats LRU/LFU locality (paper
// Section 2.1).
type Uniform struct {
	n   int
	rng *xrand.Rand
}

// NewUniform returns a uniform per-epoch permutation sampler over n samples.
func NewUniform(n int, seed uint64) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sampler: n must be positive, got %d", n)
	}
	return &Uniform{n: n, rng: xrand.New(seed)}, nil
}

// EpochOrder returns a fresh permutation of [0, n).
func (u *Uniform) EpochOrder(int) []int { return u.rng.Perm(u.n) }

// Multinomial draws n samples per epoch i.i.d. from a categorical
// distribution over per-sample weights, with replacement — matching
// torch.multinomial as used in the paper's Algorithm 1. Weight updates take
// effect at the next epoch.
//
// Draws are smoothed: the effective draw weight is w_i + mean(w). This is
// the standard IS variance-control trick (cf. SHADE's rank smoothing): it
// bounds the concentration ratio so hard samples are prioritised without
// easy regions starving. SHADE and SpiderCache both draw this way.
type Multinomial struct {
	n       int
	weights []float64
	rng     *xrand.Rand
	// minWeight floors every weight so no sample's probability collapses
	// to zero (keeps the training distribution covering the dataset).
	minWeight float64
}

// NewMultinomial returns a multinomial sampler over n samples with uniform
// initial weights.
func NewMultinomial(n int, seed uint64) (*Multinomial, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sampler: n must be positive, got %d", n)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return &Multinomial{n: n, weights: w, rng: xrand.New(seed), minWeight: 1e-3}, nil
}

// SetWeight updates the unnormalised sampling weight of sample id.
func (m *Multinomial) SetWeight(id int, w float64) {
	if w < m.minWeight {
		w = m.minWeight
	}
	m.weights[id] = w
}

// SetWeights replaces all weights (length must equal n).
func (m *Multinomial) SetWeights(w []float64) error {
	if len(w) != m.n {
		return fmt.Errorf("sampler: got %d weights, want %d", len(w), m.n)
	}
	for i, v := range w {
		if v < m.minWeight {
			v = m.minWeight
		}
		m.weights[i] = v
	}
	return nil
}

// EpochOrder draws n IDs from the current smoothed weights using Walker's
// alias method: O(n) table build then O(1) per draw.
func (m *Multinomial) EpochOrder(int) []int {
	var sum float64
	for _, w := range m.weights {
		sum += w
	}
	mix := sum / float64(m.n)
	eff := make([]float64, m.n)
	for i, w := range m.weights {
		eff[i] = w + mix
	}
	table := NewAlias(eff, m.rng)
	out := make([]int, m.n)
	for i := range out {
		out[i] = table.Draw()
	}
	return out
}
