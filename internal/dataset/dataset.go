// Package dataset synthesises the training workloads that stand in for the
// paper's CIFAR-10, CIFAR-100 and ImageNet datasets.
//
// Samples are drawn from a Gaussian mixture with one centroid per class.
// Four populations are planted deliberately, matching the sample states the
// paper's Fig 8 attributes to its graph-based importance score:
//
//   - easy:     tight around the class centroid -> well-classified, low score
//   - boundary: between two class centroids -> medium score
//   - isolated: far from every centroid -> medium score
//   - hard:     a small satellite subcluster of the class placed close to a
//     *different* class's centroid (the paper's Fig 4(d) group: rare,
//     consistently-labelled, initially misclassified) -> top score
//
// Hard samples are learnable — they form a coherent subcluster — so
// prioritising them with importance sampling genuinely improves accuracy,
// exactly the effect the paper's IS comparison (Fig 13) relies on.
//
// Every sample carries a payload size in bytes so the storage simulator can
// charge realistic transfer times, and a stable integer ID used as the cache
// key throughout the system.
package dataset

import (
	"fmt"
	"math"

	"spidercache/internal/xrand"
)

// Kind labels the planted population a sample belongs to.
type Kind uint8

// Planted sample populations (see package comment).
const (
	Easy Kind = iota
	Boundary
	Isolated
	Hard
)

// String returns the lowercase population name.
func (k Kind) String() string {
	switch k {
	case Easy:
		return "easy"
	case Boundary:
		return "boundary"
	case Isolated:
		return "isolated"
	case Hard:
		return "hard"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config describes a synthetic dataset.
type Config struct {
	Name       string
	Classes    int
	TrainSize  int // total training samples
	TestSize   int // held-out evaluation samples
	Dim        int // input feature dimensionality
	ClusterStd float64
	// CenterRadius is the hypersphere radius class centroids are placed
	// on; it controls task difficulty relative to ClusterStd*sqrt(Dim)
	// noise. 0 means the default of 3.
	CenterRadius float64
	// Fractions of the planted populations; the remainder is Easy.
	BoundaryFrac float64
	IsolatedFrac float64
	HardFrac     float64
	// PayloadMean is the average stored size of one sample in bytes
	// (log-normal distributed per sample).
	PayloadMean int
	Seed        uint64
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: Classes must be >= 2, got %d", c.Classes)
	case c.TrainSize < c.Classes:
		return fmt.Errorf("dataset: TrainSize %d < Classes %d", c.TrainSize, c.Classes)
	case c.TestSize <= 0:
		return fmt.Errorf("dataset: TestSize must be positive, got %d", c.TestSize)
	case c.Dim <= 1:
		return fmt.Errorf("dataset: Dim must be > 1, got %d", c.Dim)
	case c.ClusterStd <= 0:
		return fmt.Errorf("dataset: ClusterStd must be positive, got %g", c.ClusterStd)
	case c.PayloadMean <= 0:
		return fmt.Errorf("dataset: PayloadMean must be positive, got %d", c.PayloadMean)
	}
	frac := c.BoundaryFrac + c.IsolatedFrac + c.HardFrac
	if c.BoundaryFrac < 0 || c.IsolatedFrac < 0 || c.HardFrac < 0 || frac > 1 {
		return fmt.Errorf("dataset: population fractions invalid (sum %.3f)", frac)
	}
	return nil
}

// Dataset is a fully materialised synthetic dataset.
type Dataset struct {
	Config   Config
	Features [][]float64 // train inputs, indexed by sample ID
	Labels   []int       // train labels
	Kinds    []Kind      // planted population per train sample
	Payload  []int       // stored bytes per train sample

	TestFeatures [][]float64
	TestLabels   []int
	TestKinds    []Kind

	centers    [][]float64
	satellites [][]float64 // per-class hard-subcluster centroids
}

// New synthesises a dataset deterministically from cfg.Seed.
func New(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	d := &Dataset{Config: cfg}
	radius := cfg.CenterRadius
	if radius == 0 {
		radius = 3
	}
	d.centers = makeCenters(cfg.Classes, cfg.Dim, radius, rng)
	// Each class's hard subcluster sits 72% of the way towards the next
	// class's centroid: far enough to be misclassified until the model has
	// seen it many times, coherent enough to be learnable. The gap between
	// uniform sampling and importance sampling at a fixed epoch budget
	// comes from how quickly these satellites get learnt.
	d.satellites = make([][]float64, cfg.Classes)
	for c := range d.satellites {
		other := (c + 1) % cfg.Classes
		third := (c + 2) % cfg.Classes
		v := make([]float64, cfg.Dim)
		for j := range v {
			// Offset the subcluster off the c->other axis (towards a third
			// centroid) so learning it does not distort the boundary region
			// between c and other where the Boundary population lives.
			v[j] = 0.26*d.centers[c][j] + 0.62*d.centers[other][j] + 0.30*d.centers[third][j]
		}
		d.satellites[c] = v
	}

	d.Features = make([][]float64, cfg.TrainSize)
	d.Labels = make([]int, cfg.TrainSize)
	d.Kinds = make([]Kind, cfg.TrainSize)
	d.Payload = make([]int, cfg.TrainSize)
	for i := 0; i < cfg.TrainSize; i++ {
		kind := pickKind(cfg, rng)
		label, x := d.sampleOf(kind, rng)
		d.Features[i] = x
		d.Labels[i] = label
		d.Kinds[i] = kind
		d.Payload[i] = payloadSize(cfg.PayloadMean, rng)
	}

	d.TestFeatures = make([][]float64, cfg.TestSize)
	d.TestLabels = make([]int, cfg.TestSize)
	d.TestKinds = make([]Kind, cfg.TestSize)
	for i := 0; i < cfg.TestSize; i++ {
		// The test distribution mirrors training: mostly easy samples,
		// plus the boundary and hard populations — so learning the hard
		// subclusters pays off in held-out accuracy.
		kind := Easy
		switch u := rng.Float64(); {
		case u < cfg.HardFrac:
			kind = Hard
		case u < cfg.HardFrac+cfg.BoundaryFrac:
			kind = Boundary
		}
		label, x := d.sampleOf(kind, rng)
		d.TestFeatures[i] = x
		d.TestLabels[i] = label
		d.TestKinds[i] = kind
	}
	return d, nil
}

// Len returns the number of training samples.
func (d *Dataset) Len() int { return len(d.Features) }

// TotalBytes returns the summed payload size of the training set.
func (d *Dataset) TotalBytes() int64 {
	var t int64
	for _, p := range d.Payload {
		t += int64(p)
	}
	return t
}

func pickKind(cfg Config, rng *xrand.Rand) Kind {
	u := rng.Float64()
	switch {
	case u < cfg.HardFrac:
		return Hard
	case u < cfg.HardFrac+cfg.IsolatedFrac:
		return Isolated
	case u < cfg.HardFrac+cfg.IsolatedFrac+cfg.BoundaryFrac:
		return Boundary
	default:
		return Easy
	}
}

func (d *Dataset) sampleOf(kind Kind, rng *xrand.Rand) (label int, x []float64) {
	cfg := d.Config
	label = rng.Intn(cfg.Classes)
	x = make([]float64, cfg.Dim)
	std := cfg.ClusterStd
	switch kind {
	case Easy:
		// Tight clusters: easy samples are highly redundant (any modest
		// subset teaches the same decision boundary), mirroring the
		// duplicate-heavy nature of real training sets the paper leans on.
		for j := range x {
			x[j] = d.centers[label][j] + rng.NormFloat64()*std*0.35
		}
	case Boundary:
		other := (label + 1 + rng.Intn(cfg.Classes-1)) % cfg.Classes
		// Mixture of two class centroids, biased to the sample's own side
		// of the midpoint so the label remains learnable (hard but not
		// irreducible noise).
		w := 0.50 + 0.25*rng.Float64()
		for j := range x {
			mid := w*d.centers[label][j] + (1-w)*d.centers[other][j]
			x[j] = mid + rng.NormFloat64()*std*0.8
		}
	case Isolated:
		// Far from every centroid: the class centroid pushed outward
		// with heavy noise.
		for j := range x {
			x[j] = d.centers[label][j]*2.5 + rng.NormFloat64()*std*3
		}
	case Hard:
		// Rare satellite subcluster: correct label, but located near the
		// next class's centroid (tight so it is learnable).
		for j := range x {
			x[j] = d.satellites[label][j] + rng.NormFloat64()*std*0.32
		}
	}
	return label, x
}

// makeCenters places class centroids at random directions on a hypersphere
// of the given radius so that neighbouring classes overlap mildly.
func makeCenters(classes, dim int, radius float64, rng *xrand.Rand) [][]float64 {
	centers := make([][]float64, classes)
	for c := range centers {
		v := make([]float64, dim)
		var norm float64
		for j := range v {
			v[j] = rng.NormFloat64()
			norm += v[j] * v[j]
		}
		norm = math.Sqrt(norm)
		for j := range v {
			v[j] = v[j] / norm * radius
		}
		centers[c] = v
	}
	return centers
}

// payloadSize draws a log-normal-ish payload around the configured mean,
// clamped to [mean/4, mean*4].
func payloadSize(mean int, rng *xrand.Rand) int {
	f := math.Exp(rng.NormFloat64() * 0.35)
	s := int(float64(mean) * f)
	if s < mean/4 {
		s = mean / 4
	}
	if s > mean*4 {
		s = mean * 4
	}
	return s
}
