package dataset

import (
	"math"
	"testing"
)

func smallConfig() Config {
	return Config{
		Name: "test", Classes: 4, TrainSize: 800, TestSize: 200, Dim: 8,
		ClusterStd: 1.0, BoundaryFrac: 0.2, IsolatedFrac: 0.05, HardFrac: 0.1,
		PayloadMean: 1024, Seed: 1,
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Classes = 1 },
		func(c *Config) { c.TrainSize = 2 },
		func(c *Config) { c.TestSize = 0 },
		func(c *Config) { c.Dim = 1 },
		func(c *Config) { c.ClusterStd = 0 },
		func(c *Config) { c.PayloadMean = 0 },
		func(c *Config) { c.BoundaryFrac = -0.1 },
		func(c *Config) { c.BoundaryFrac = 0.9; c.HardFrac = 0.3 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(smallConfig())
	for i := range a.Features {
		if a.Labels[i] != b.Labels[i] || a.Kinds[i] != b.Kinds[i] || a.Payload[i] != b.Payload[i] {
			t.Fatalf("sample %d differs between same-seed datasets", i)
		}
		for j := range a.Features[i] {
			if a.Features[i][j] != b.Features[i][j] {
				t.Fatalf("feature (%d,%d) differs", i, j)
			}
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	cfg := smallConfig()
	a, _ := New(cfg)
	cfg.Seed = 2
	b, _ := New(cfg)
	same := 0
	for i := range a.Features {
		if a.Features[i][0] == b.Features[i][0] {
			same++
		}
	}
	if same > len(a.Features)/10 {
		t.Fatalf("%d/%d identical first features across seeds", same, len(a.Features))
	}
}

func TestShapesAndRanges(t *testing.T) {
	cfg := smallConfig()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != cfg.TrainSize {
		t.Fatalf("Len = %d", d.Len())
	}
	if len(d.TestFeatures) != cfg.TestSize || len(d.TestLabels) != cfg.TestSize || len(d.TestKinds) != cfg.TestSize {
		t.Fatal("test split sizes wrong")
	}
	for i, lab := range d.Labels {
		if lab < 0 || lab >= cfg.Classes {
			t.Fatalf("label %d out of range", lab)
		}
		if len(d.Features[i]) != cfg.Dim {
			t.Fatalf("feature dim %d", len(d.Features[i]))
		}
	}
}

func TestPayloadBounds(t *testing.T) {
	cfg := smallConfig()
	d, _ := New(cfg)
	var total int64
	for _, p := range d.Payload {
		if p < cfg.PayloadMean/4 || p > cfg.PayloadMean*4 {
			t.Fatalf("payload %d outside clamp", p)
		}
		total += int64(p)
	}
	if d.TotalBytes() != total {
		t.Fatalf("TotalBytes = %d, want %d", d.TotalBytes(), total)
	}
	// Mean should be in the right ballpark.
	mean := float64(total) / float64(len(d.Payload))
	if mean < float64(cfg.PayloadMean)*0.7 || mean > float64(cfg.PayloadMean)*1.4 {
		t.Fatalf("payload mean %.0f vs configured %d", mean, cfg.PayloadMean)
	}
}

func TestPopulationFractions(t *testing.T) {
	cfg := smallConfig()
	cfg.TrainSize = 20000
	d, _ := New(cfg)
	counts := map[Kind]int{}
	for _, k := range d.Kinds {
		counts[k]++
	}
	frac := func(k Kind) float64 { return float64(counts[k]) / float64(d.Len()) }
	if math.Abs(frac(Hard)-cfg.HardFrac) > 0.02 {
		t.Errorf("hard fraction %.3f, want %.2f", frac(Hard), cfg.HardFrac)
	}
	if math.Abs(frac(Boundary)-cfg.BoundaryFrac) > 0.02 {
		t.Errorf("boundary fraction %.3f, want %.2f", frac(Boundary), cfg.BoundaryFrac)
	}
	if math.Abs(frac(Isolated)-cfg.IsolatedFrac) > 0.02 {
		t.Errorf("isolated fraction %.3f, want %.2f", frac(Isolated), cfg.IsolatedFrac)
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// TestHardSamplesNearWrongClass checks the Fig 4(d) construction: hard
// samples are closer to the next class's centroid than to their own.
func TestHardSamplesNearWrongClass(t *testing.T) {
	cfg := smallConfig()
	d, _ := New(cfg)
	checked := 0
	for i, k := range d.Kinds {
		if k != Hard {
			continue
		}
		own := dist(d.Features[i], d.centers[d.Labels[i]])
		other := dist(d.Features[i], d.centers[(d.Labels[i]+1)%cfg.Classes])
		if other >= own {
			t.Errorf("hard sample %d closer to own centroid (%.2f vs %.2f)", i, own, other)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no hard samples generated")
	}
}

// TestEasySamplesNearOwnClass checks that easy samples sit closest to their
// own centroid among all centroids.
func TestEasySamplesNearOwnClass(t *testing.T) {
	cfg := smallConfig()
	d, _ := New(cfg)
	misplaced, checked := 0, 0
	for i, k := range d.Kinds {
		if k != Easy {
			continue
		}
		checked++
		own := dist(d.Features[i], d.centers[d.Labels[i]])
		for c := 0; c < cfg.Classes; c++ {
			if c != d.Labels[i] && dist(d.Features[i], d.centers[c]) < own {
				misplaced++
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no easy samples")
	}
	if frac := float64(misplaced) / float64(checked); frac > 0.05 {
		t.Fatalf("%.1f%% of easy samples misplaced", frac*100)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Easy: "easy", Boundary: "boundary", Isolated: "isolated", Hard: "hard", Kind(9): "Kind(9)"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{CIFAR10Like(1, 1), CIFAR100Like(1, 1), ImageNetLike(1, 1)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", cfg.Name, err)
		}
	}
	// Tiny scales stay valid.
	for _, cfg := range []Config{CIFAR10Like(0.01, 1), CIFAR100Like(0.1, 1), ImageNetLike(0.05, 1)} {
		if _, err := New(cfg); err != nil {
			t.Errorf("preset %s at small scale: %v", cfg.Name, err)
		}
	}
}

func TestCenterRadiusDefault(t *testing.T) {
	cfg := smallConfig()
	d, _ := New(cfg)
	r := math.Sqrt(sq(d.centers[0]))
	if math.Abs(r-3) > 1e-9 {
		t.Fatalf("default radius %.3f, want 3", r)
	}
	cfg.CenterRadius = 5
	d2, _ := New(cfg)
	if r2 := math.Sqrt(sq(d2.centers[0])); math.Abs(r2-5) > 1e-9 {
		t.Fatalf("radius %.3f, want 5", r2)
	}
}

func sq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
