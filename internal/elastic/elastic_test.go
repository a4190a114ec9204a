package elastic

import (
	"math"
	"testing"
	"testing/quick"

	"spidercache/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RStart = 0 },
		func(c *Config) { c.RStart = 1.2 },
		func(c *Config) { c.REnd = c.RStart + 0.1 },
		func(c *Config) { c.REnd = -0.1 },
		func(c *Config) { c.RStart = math.NaN() },
		func(c *Config) { c.REnd = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := New(cfg, 100); err == nil {
			t.Errorf("mutation %d: New accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), 0); err == nil {
		t.Error("zero TotalEpochs accepted")
	}
	if _, err := New(DefaultConfig(), 100); err != nil {
		t.Fatal(err)
	}
}

// feed pushes a synthetic training trace: σ rises for riseLen epochs then
// decays; accuracy follows a saturating curve.
func feed(m *Manager, epochs, riseLen int) []float64 {
	ratios := make([]float64, epochs)
	for e := 0; e < epochs; e++ {
		var sigma float64
		if e < riseLen {
			sigma = 0.1 + 0.02*float64(e)
		} else {
			sigma = 0.1 + 0.02*float64(riseLen) - 0.015*float64(e-riseLen)
			if sigma < 0.01 {
				sigma = 0.01
			}
		}
		acc := 0.9 * (1 - math.Exp(-float64(e)/8))
		ratios[e] = m.Observe(e, sigma, acc)
	}
	return ratios
}

func TestRatioStaysAtStartBeforeActivation(t *testing.T) {
	m, _ := New(DefaultConfig(), 40)
	ratios := feed(m, 10, 20) // σ still rising throughout
	for e, r := range ratios {
		if r != 0.90 {
			t.Fatalf("epoch %d: ratio %.3f before activation", e, r)
		}
	}
	if m.beta {
		t.Fatal("activated while σ rising")
	}
}

func TestActivationOnDecliningSigma(t *testing.T) {
	m, _ := New(DefaultConfig(), 40)
	ratios := feed(m, 40, 10)
	if !m.beta {
		t.Fatal("β never latched despite declining σ")
	}
	if last := ratios[len(ratios)-1]; last >= 0.90 {
		t.Fatalf("ratio %.4f did not move after activation", last)
	}
}

func TestRatioMonotoneAndBounded(t *testing.T) {
	m, _ := New(DefaultConfig(), 40)
	ratios := feed(m, 40, 8)
	for e := 1; e < len(ratios); e++ {
		if ratios[e] > ratios[e-1]+1e-12 {
			t.Fatalf("ratio increased at epoch %d: %.4f -> %.4f", e, ratios[e-1], ratios[e])
		}
	}
	last := ratios[len(ratios)-1]
	if last < 0.80-1e-9 || last > 0.90+1e-9 {
		t.Fatalf("final ratio %.4f outside [0.80, 0.90]", last)
	}
}

func TestRatioReachesREnd(t *testing.T) {
	cfg := DefaultConfig()
	m, _ := New(cfg, 30)
	ratios := feed(m, 30, 6)
	if got := ratios[len(ratios)-1]; math.Abs(got-cfg.REnd) > 0.02 {
		t.Fatalf("final ratio %.4f, want ~%.2f", got, cfg.REnd)
	}
}

// TestPenaltySlowsAdjustment: with rapidly growing accuracy (u -> 1) the
// ratio trajectory must stay above the u -> 0 trajectory at mid-training.
func TestPenaltySlowsAdjustment(t *testing.T) {
	run := func(growing bool) float64 {
		m, _ := New(DefaultConfig(), 40)
		var mid float64
		for e := 0; e < 40; e++ {
			sigma := 0.3 - 0.01*float64(e) // declining from the start
			acc := 0.5
			if growing {
				acc = 0.02 * float64(e) // strong steady growth
			}
			r := m.Observe(e, sigma, acc)
			if e == 20 {
				mid = r
			}
		}
		return mid
	}
	fast := run(true)  // u near 1: adjustment slowed
	slow := run(false) // u = 0: adjustment at full speed
	if fast <= slow {
		t.Fatalf("growing accuracy did not slow the shift: %.4f vs %.4f", fast, slow)
	}
}

// TestObserveIsEq8 checks that Observe's ratio is RatioAt's at the
// manager's own t/T and u, so Eq. 8 has one implementation, and that the
// penalty u stays in [0,1).
func TestObserveIsEq8(t *testing.T) {
	m, _ := New(Config{RStart: 0.9, REnd: 0.5}, 40)
	var r float64
	for e := 0; e < 40; e++ {
		sigma := 0.3 - 0.01*float64(e)
		r = m.Observe(e, sigma, 0.02*float64(e))
		if !m.beta {
			continue
		}
		u := m.penalty()
		if u < 0 || u >= 1 {
			t.Fatalf("epoch %d: u = %g outside [0,1)", e, u)
		}
		frac := float64(e-m.activatedAt+1) / float64(40-m.activatedAt)
		if want := RatioAt(0.9, 0.5, frac, u); r != want {
			t.Fatalf("epoch %d: Observe %v, RatioAt %v", e, r, want)
		}
	}
	if !m.beta || r != 0.5 {
		t.Fatalf("activated %v, final ratio %v: Eq. 8 was not exercised to r_end", m.beta, r)
	}
}

// TestEqualRangeIsStatic: with REnd = RStart, Eq. 8 is the static split,
// even once β has latched.
func TestEqualRangeIsStatic(t *testing.T) {
	m, _ := New(Config{RStart: 0.9, REnd: 0.9}, 40)
	for e, r := range feed(m, 40, 8) {
		if r != 0.9 {
			t.Fatalf("epoch %d: ratio %v, want 0.9", e, r)
		}
	}
	if !m.beta {
		t.Fatal("β never latched: the static path was not exercised")
	}
}

func TestRatioAtFormula(t *testing.T) {
	// Eq. 8 spot checks.
	if got := RatioAt(0.9, 0.8, 0, 0); got != 0.9 {
		t.Fatalf("t=0: %g", got)
	}
	if got := RatioAt(0.9, 0.8, 1, 0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("t=T,u=0: %g", got)
	}
	if got := RatioAt(0.9, 0.8, 0.5, 0); math.Abs(got-0.85) > 1e-12 {
		t.Fatalf("t=T/2,u=0: %g (linear when u=0)", got)
	}
	if got := RatioAt(0.9, 0.8, 0.5, 1); math.Abs(got-(0.9-0.1*0.25)) > 1e-12 {
		t.Fatalf("t=T/2,u=1: %g (quadratic when u=1)", got)
	}
}

// Property: RatioAt is bounded by [rEnd, rStart] and decreasing in frac.
func TestRatioAtProperties(t *testing.T) {
	check := func(fracRaw, uRaw uint8) bool {
		frac := float64(fracRaw) / 255
		u := float64(uRaw) / 255
		r := RatioAt(0.9, 0.8, frac, u)
		if r < 0.8-1e-12 || r > 0.9+1e-12 {
			return false
		}
		r2 := RatioAt(0.9, 0.8, frac+0.1, u)
		return r2 <= r+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlope(t *testing.T) {
	if s := Slope([]float64{1, 2, 3, 4}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("Slope = %g, want 1", s)
	}
	if s := Slope([]float64{4, 3, 2, 1}); math.Abs(s+1) > 1e-12 {
		t.Fatalf("Slope = %g, want -1", s)
	}
	if s := Slope([]float64{5, 5, 5}); s != 0 {
		t.Fatalf("Slope of constant = %g", s)
	}
	if s := Slope([]float64{7}); s != 0 {
		t.Fatalf("Slope of single point = %g", s)
	}
}

// TestPatienceGuardsAgainstNoise feeds a rising σ with dips, each of which
// turns exactly one windowed slope negative: β must not latch on a lone
// negative slope.
func TestPatienceGuardsAgainstNoise(t *testing.T) {
	m, _ := New(DefaultConfig(), 40)
	sig := []float64{0.30, 0.31, 0.32, 0.33, 0.34, 0.20, 0.40, 0.41, 0.30, 0.45, 0.46, 0.35, 0.50}
	neg, prevNeg := 0, false
	for e, s := range sig {
		m.Observe(e, s, 0.5)
		if e+1 < slopeWindow {
			continue
		}
		isNeg := Slope(sig[e+1-slopeWindow:e+1]) < 0
		if isNeg && prevNeg {
			t.Fatalf("epoch %d: fixture has two negative slopes in a row", e)
		}
		if isNeg {
			neg++
		}
		prevNeg = isNeg
	}
	if neg == 0 {
		t.Fatal("fixture has no negative slope")
	}
	if m.beta {
		t.Fatal("activated on noisy σ")
	}
}

// TestPenaltyUReported: u is 0 before any accuracy is seen and in [0,1)
// once β has latched on the synthetic trace.
func TestPenaltyUReported(t *testing.T) {
	m, _ := New(DefaultConfig(), 40)
	if m.penalty() != 0 {
		t.Fatal("u nonzero before activation")
	}
	feed(m, 40, 5)
	if !m.beta {
		t.Fatal("trace did not activate the manager")
	}
	if u := m.penalty(); u < 0 || u >= 1 {
		t.Fatalf("u = %g outside [0,1)", u)
	}
}

// TestKnownCoefficients: the filter's weights are the classic 5-point
// quadratic (-3, 12, 17, 12, -3)/35, to within 2 ulps.
func TestKnownCoefficients(t *testing.T) {
	for i, num := range []float64{-3, 12, 17, 12, -3} {
		want := num / 35
		if ulp := math.Nextafter(math.Abs(want), 1) - math.Abs(want); math.Abs(sgWeights[i]-want) > 2*ulp {
			t.Errorf("sgWeights[%d] = %x, want %x within 2 ulps", i, sgWeights[i], want)
		}
	}
}

func TestCoefficientsSumToOne(t *testing.T) {
	var sum float64
	for _, w := range sgWeights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Errorf("weights sum to %g", sum)
	}
}

// TestPolynomialReproduction: an order-2 filter reproduces any polynomial
// of degree <= 2 exactly at interior points (the mirror padding bends it
// at the edges).
func TestPolynomialReproduction(t *testing.T) {
	poly := func(x float64) float64 { return 2 + 0.5*x - 0.03*x*x }
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = poly(float64(i))
	}
	sm := smooth(xs)
	for i := 2; i < len(xs)-2; i++ {
		if math.Abs(sm[i]-xs[i]) > 1e-9 {
			t.Fatalf("interior point %d: %g != %g", i, sm[i], xs[i])
		}
	}
}

func TestSmoothReducesNoise(t *testing.T) {
	rng := xrand.New(1)
	n := 200
	noisy := make([]float64, n)
	clean := make([]float64, n)
	for i := range noisy {
		clean[i] = math.Sin(float64(i) / 20)
		noisy[i] = clean[i] + rng.NormFloat64()*0.2
	}
	sm := smooth(noisy)
	var before, after float64
	for i := 5; i < n-5; i++ {
		before += (noisy[i] - clean[i]) * (noisy[i] - clean[i])
		after += (sm[i] - clean[i]) * (sm[i] - clean[i])
	}
	if after >= before*0.7 {
		t.Fatalf("smoothing did not reduce noise: %.4f -> %.4f", before, after)
	}
}

func TestSmoothPreservesConstants(t *testing.T) {
	check := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			// Astronomic magnitudes lose relative precision in the
			// convolution's cancellations; the filter operates on
			// accuracy series in [0, 1].
			return true
		}
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = v
		}
		for _, s := range smooth(xs) {
			if math.Abs(s-v) > math.Abs(v)*1e-9+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShortSeriesReturnedUnfiltered(t *testing.T) {
	xs := []float64{1, 2, 3, 5}
	sm := smooth(xs)
	for i := range xs {
		if sm[i] != xs[i] {
			t.Fatalf("short series modified: %v", sm)
		}
	}
	// And the output must be a copy.
	sm[0] = 99
	if xs[0] != 1 {
		t.Fatal("smooth aliases its input")
	}
}
