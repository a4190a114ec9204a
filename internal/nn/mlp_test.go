package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"spidercache/internal/tensor"
	"spidercache/internal/xrand"
)

func testConfig() MLPConfig {
	return MLPConfig{InputDim: 4, HiddenDim: 16, EmbedDim: 8, Classes: 3, LR: 0.1, Momentum: 0.9, WeightDec: 0}
}

func TestConfigValidate(t *testing.T) {
	bad := []MLPConfig{
		{},
		{InputDim: 4, HiddenDim: 16, EmbedDim: 8, Classes: 1, LR: 0.1},
		{InputDim: 4, HiddenDim: 16, EmbedDim: 8, Classes: 3, LR: 0},
		{InputDim: 4, HiddenDim: 16, EmbedDim: 8, Classes: 3, LR: 0.1, Momentum: 1.0},
		{InputDim: 4, HiddenDim: 16, EmbedDim: 8, Classes: 3, LR: 0.1, WeightDec: -1},
		{InputDim: -1, HiddenDim: 16, EmbedDim: 8, Classes: 3, LR: 0.1},
		{InputDim: 4, HiddenDim: 0, EmbedDim: 8, Classes: 3, LR: 0.1},
		{InputDim: 4, HiddenDim: 16, EmbedDim: 0, Classes: 3, LR: 0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestForwardShapes(t *testing.T) {
	m, err := NewMLP(testConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 4)
	fr := m.Forward(x, []int{0, 1, 2, 0, 1})
	if len(fr.Losses) != 5 || len(fr.Embeddings) != 5 {
		t.Fatalf("result sizes %d/%d, want 5", len(fr.Losses), len(fr.Embeddings))
	}
	if len(fr.Embeddings[0]) != 8 {
		t.Fatalf("embedding dim %d, want 8", len(fr.Embeddings[0]))
	}
	for _, l := range fr.Losses {
		if l <= 0 || math.IsNaN(l) {
			t.Fatalf("bad loss %g", l)
		}
	}
}

func TestForwardLabelMismatchPanics(t *testing.T) {
	m, _ := NewMLP(testConfig(), xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on label mismatch")
		}
	}()
	m.Forward(tensor.New(2, 4), []int{0})
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	m, _ := NewMLP(testConfig(), xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Backward before Forward")
		}
	}()
	m.Backward(nil)
}

// TestBackwardWeightsLengthPanics: a short weight slice used to die with an
// index error deep in the softmax gradient, and a long one was silently
// truncated.
func TestBackwardWeightsLengthPanics(t *testing.T) {
	for _, n := range []int{0, 2, 4} {
		m, _ := NewMLP(testConfig(), xrand.New(1))
		m.Forward(tensor.New(3, 4), []int{0, 1, 2})
		func() {
			defer func() {
				want := fmt.Sprintf("nn: %d backprop weights for a batch of 3", n)
				if r := recover(); r != want {
					t.Errorf("%d weights: recovered %v, want %q", n, r, want)
				}
			}()
			m.Backward(make([]float64, n))
		}()
	}
}

// makeBlobs builds a trivially separable 2-class problem.
func makeBlobs(n int, rng *xrand.Rand) (*tensor.Matrix, []int) {
	x := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 2
		sign := float64(labels[i]*2 - 1)
		for j := 0; j < 4; j++ {
			x.Data[i*x.Cols+j] = sign*2 + rng.NormFloat64()*0.3
		}
	}
	return x, labels
}

func TestTrainingReducesLossAndLearns(t *testing.T) {
	rng := xrand.New(7)
	cfg := testConfig()
	cfg.Classes = 2
	m, err := NewMLP(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, labels := makeBlobs(64, rng)

	fr := m.Forward(x, labels)
	first := mean(fr.Losses)
	m.Backward(nil)
	for i := 0; i < 50; i++ {
		m.Forward(x, labels)
		m.Backward(nil)
	}
	fr = m.Forward(x, labels)
	last := mean(fr.Losses)
	m.Backward(nil)
	if last >= first {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	acc, _ := m.Evaluate(x, labels)
	if acc < 0.95 {
		t.Fatalf("accuracy %g on separable blobs, want >= 0.95", acc)
	}
}

func TestZeroWeightsFreezeModel(t *testing.T) {
	rng := xrand.New(9)
	cfg := testConfig()
	cfg.Classes = 2
	cfg.Momentum = 0 // momentum buffers would otherwise keep moving weights
	m, _ := NewMLP(cfg, rng)
	x, labels := makeBlobs(16, rng)

	before, _ := m.Evaluate(x, labels)
	_ = before
	m.Forward(x, labels)
	w := make([]float64, 16) // all zero: every sample's backprop skipped
	m.Backward(w)
	fr1 := m.Forward(x, labels)
	m.Backward(nil)
	fr2 := m.Forward(x, labels)
	m.Backward(nil)
	// After the all-zero step the losses must be identical to a fresh
	// forward (no update happened); after a real step they must change.
	if math.Abs(mean(fr1.Losses)-meanAfterFresh(cfg, rng2(9), x, labels)) > 1e-9 {
		t.Fatal("zero-weight Backward changed the model")
	}
	if mean(fr2.Losses) == mean(fr1.Losses) {
		t.Fatal("real Backward did not change the model")
	}
}

// meanAfterFresh replays one skipped step on an identical fresh model.
func meanAfterFresh(cfg MLPConfig, rng *xrand.Rand, x *tensor.Matrix, labels []int) float64 {
	m, _ := NewMLP(cfg, rng)
	m.Forward(x, labels)
	m.Backward(make([]float64, x.Rows))
	fr := m.Forward(x, labels)
	m.Backward(nil)
	return mean(fr.Losses)
}

func rng2(seed uint64) *xrand.Rand { return xrand.New(seed) }

func TestDeterministicInit(t *testing.T) {
	a, _ := NewMLP(testConfig(), xrand.New(5))
	b, _ := NewMLP(testConfig(), xrand.New(5))
	x := tensor.New(3, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	fa := a.Forward(x, []int{0, 1, 2})
	fb := b.Forward(x, []int{0, 1, 2})
	for i := range fa.Losses {
		if fa.Losses[i] != fb.Losses[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestSetLR(t *testing.T) {
	m, _ := NewMLP(testConfig(), xrand.New(1))
	m.SetLR(0.01)
	if m.Config().LR != 0.01 {
		t.Fatalf("SetLR not applied: %g", m.Config().LR)
	}
	m.SetLR(-1) // ignored
	if m.Config().LR != 0.01 {
		t.Fatal("negative LR applied")
	}
}

// TestBackwardGolden pins training bit for bit: FNV-64a over the
// Float64bits of every weight and bias after 20 Forward+Backward steps on
// the benchmark shape, with uniform and with per-sample weights (zeros
// included). The hashes were recorded before Backward stopped computing
// the first layer's input gradient, which no weight depends on.
func TestBackwardGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		weighted bool
		want     uint64
	}{
		{"uniform", false, 0xc26d58ea26ca1fa6},
		{"per-sample", true, 0x977eb42c635dfc66},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(11)
			cfg := MLPConfig{InputDim: 32, HiddenDim: 128, EmbedDim: 32, Classes: 10, LR: 0.05, Momentum: 0.9, WeightDec: 1e-4}
			m, err := NewMLP(cfg, rng)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(64, 32)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			labels := make([]int, 64)
			var weights []float64
			if tc.weighted {
				weights = make([]float64, 64)
			}
			for i := range labels {
				labels[i] = i % 10
				if tc.weighted {
					weights[i] = float64(i%4) / 96 // every fourth sample skipped
				}
			}
			for step := 0; step < 20; step++ {
				m.Forward(x, labels)
				m.Backward(weights)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, data := range [][]float64{m.l1.w.Data, m.l1.b.Data, m.l2.w.Data, m.l2.b.Data, m.l3.w.Data, m.l3.b.Data} {
				for _, v := range data {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("weights hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
