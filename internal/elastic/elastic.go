// Package elastic implements the paper's Elastic Cache Manager
// (Section 4.3): the controller that shifts cache capacity from the
// Importance Cache to the Homophily Cache as training matures.
//
// Three cooperating parts:
//
//   - Importance Monitor: watches the slope of the importance-score standard
//     deviation σ; a sustained negative slope sets the activation factor
//     β = 1 (Eq. 5).
//   - Accuracy Monitor: Savitzky-Golay-smooths the accuracy series, computes
//     the mean growth rate Δ over a window of m epochs (Eq. 6), and derives
//     the penalty u = Δ/(γ+Δ) (Eq. 7).
//   - Ratio Controller: imp_ratio(t) = r_start − β(r_start−r_end)(t/T)^(1+u)
//     (Eq. 8) — adjustment is slow while accuracy still grows (u→1) and
//     accelerates once growth stabilises (u→0).
//
// Only r_start, r_end (Config) and the horizon T (New) are inputs; γ, m,
// the σ-slope guard and the Savitzky-Golay smoother are constants. A static
// split is r_end = r_start: Eq. 8 then holds the ratio at r_start.
package elastic

import (
	"fmt"
	"math"
)

// The manager's constants: the paper's γ and m (Eqs. 6-7), the
// Savitzky-Golay smoother applied to the accuracy series, and the Importance
// Monitor's guard against σ noise — β latches to 1 only after patience
// consecutive negative least-squares slopes, each fitted over the last
// slopeWindow σ observations.
const (
	gamma       = 0.01 // balancing factor in u = Δ/(γ+Δ)
	window      = 5    // m, epochs averaged for the growth rate
	slopeWindow = 5
	patience    = 2
)

// sgWeights is the Savitzky-Golay filter (Savitzky & Golay, 1964) the
// Accuracy Monitor smooths with: window 5, order 2, the classic
// (-3, 12, 17, 12, -3)/35. The literals are the values a least-squares
// solve of the normal equations yields, 1-2 ulps off the correctly
// rounded quotients; every whole-run golden depends on them bit for bit.
var sgWeights = [5]float64{
	-0x1.5f15f15f15f18p-04,
	0x1.5f15f15f15f15p-02,
	0x1.f15f15f15f15ep-02,
	0x1.5f15f15f15f15p-02,
	-0x1.5f15f15f15f18p-04,
}

// smooth returns xs filtered with sgWeights, mirror-padding half a window
// on each side. A series shorter than the window is returned as a copy,
// unfiltered.
func smooth(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) < len(sgWeights) {
		copy(out, xs)
		return out
	}
	const half = len(sgWeights) / 2
	for i := range xs {
		var s float64
		for k, w := range sgWeights {
			// Mirror padding: ..., x2, x1, | x0, x1, ..., xn-1 |, xn-2, ...
			j := i + k - half
			if j < 0 {
				j = -j
			}
			if j >= len(xs) {
				j = 2*len(xs) - 2 - j
			}
			s += w * xs[j]
		}
		out[i] = s
	}
	return out
}

// Config holds the two ends of the imp-ratio trajectory (Eq. 8). The paper
// recommends RStart=0.90, REnd=0.80; REnd = RStart is the static split of
// Table 6's "90%" strategy.
type Config struct {
	RStart float64 // initial Importance Cache share
	REnd   float64 // final Importance Cache share
}

// DefaultConfig returns the paper-recommended endpoints.
func DefaultConfig() Config {
	return Config{RStart: 0.90, REnd: 0.80}
}

// Validate reports a descriptive error for unusable endpoints.
func (c Config) Validate() error {
	// Written as negated in-range tests so that NaN fails them.
	switch {
	case !(0 < c.RStart && c.RStart <= 1):
		return fmt.Errorf("elastic: RStart must be in (0,1], got %g", c.RStart)
	case !(0 <= c.REnd && c.REnd <= c.RStart):
		return fmt.Errorf("elastic: REnd must be in [0,RStart], got %g", c.REnd)
	}
	return nil
}

// Manager is the Elastic Cache Manager. Feed it one Observe call per epoch.
type Manager struct {
	cfg         Config
	totalEpochs int // T in Eq. 8

	sigmas     []float64
	accuracies []float64

	beta        bool // activation latched
	negStreak   int
	activatedAt int // epoch index when β latched (ratio time base)
}

// New builds a manager for a run of totalEpochs epochs (T in Eq. 8).
func New(cfg Config, totalEpochs int) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if totalEpochs < 1 {
		return nil, fmt.Errorf("elastic: TotalEpochs must be >= 1, got %d", totalEpochs)
	}
	return &Manager{cfg: cfg, totalEpochs: totalEpochs}, nil
}

// Observe ingests the epoch's importance-score std and held-out accuracy and
// returns the Importance Cache share to use next epoch.
func (m *Manager) Observe(epoch int, scoreStd, accuracy float64) float64 {
	m.sigmas = append(m.sigmas, scoreStd)
	m.accuracies = append(m.accuracies, accuracy)

	// Importance Monitor: latch β on a sustained negative σ slope (Eq. 5).
	if !m.beta {
		if s, ok := m.sigmaSlope(); ok && s < 0 {
			m.negStreak++
			if m.negStreak >= patience {
				m.beta = true
				m.activatedAt = epoch
			}
		} else {
			m.negStreak = 0
		}
	}
	if !m.beta {
		return m.cfg.RStart
	}
	u := m.penalty()

	// Ratio Controller (Eq. 8). t counts epochs since activation so the
	// trajectory starts at r_start the moment β flips, and T is the
	// remaining training horizon.
	t := float64(epoch - m.activatedAt + 1)
	total := float64(m.totalEpochs - m.activatedAt)
	if total < 1 {
		total = 1
	}
	return RatioAt(m.cfg.RStart, m.cfg.REnd, t/total, u)
}

// penalty is the Accuracy Monitor: u = Δ/(γ+Δ) from the SG-smoothed
// growth rate (Eqs. 6-7). Negative growth clamps Δ at 0 so u stays in
// [0,1).
func (m *Manager) penalty() float64 {
	delta := m.growthRate()
	if delta < 0 {
		delta = 0
	}
	return delta / (gamma + delta)
}

// sigmaSlope fits a least-squares line over the last slopeWindow σ values.
func (m *Manager) sigmaSlope() (float64, bool) {
	if len(m.sigmas) < slopeWindow {
		return 0, false
	}
	ys := m.sigmas[len(m.sigmas)-slopeWindow:]
	return Slope(ys), true
}

// growthRate computes Eq. 6 over the SG-smoothed accuracy series.
func (m *Manager) growthRate() float64 {
	if len(m.accuracies) < 2 {
		return 0
	}
	smoothed := smooth(m.accuracies)
	mWin := window
	if mWin > len(smoothed)-1 {
		mWin = len(smoothed) - 1
	}
	var sum float64
	for i := 0; i < mWin; i++ {
		hi := len(smoothed) - 1 - i
		sum += smoothed[hi] - smoothed[hi-1]
	}
	return sum / float64(mWin)
}

// Slope returns the least-squares slope of ys against index 0..len-1.
func Slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}

// RatioAt evaluates Eq. 8 once β has latched, imp_ratio =
// r_start − (r_start−r_end)(t/T)^(1+u), with frac = t/T clamped to [0, 1]
// and the result never below rEnd (before β latches, Observe returns
// r_start itself). It is the one implementation of Eq. 8: Observe calls
// it, and so does the Fig 11 analytic sweep.
func RatioAt(rStart, rEnd, frac, u float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return max(rStart-(rStart-rEnd)*math.Pow(frac, 1+u), rEnd)
}
