package sampler

import (
	"math"
	"testing"

	"spidercache/internal/xrand"
)

func TestUniformIsPermutation(t *testing.T) {
	u, err := NewUniform(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 5; epoch++ {
		order := u.EpochOrder(epoch)
		if len(order) != 100 {
			t.Fatalf("order length %d", len(order))
		}
		seen := make([]bool, 100)
		for _, id := range order {
			if seen[id] {
				t.Fatalf("epoch %d: duplicate id %d", epoch, id)
			}
			seen[id] = true
		}
	}
}

func TestUniformShufflesAcrossEpochs(t *testing.T) {
	u, _ := NewUniform(100, 2)
	a := u.EpochOrder(0)
	b := u.EpochOrder(1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("epochs too similar: %d/100 positions equal", same)
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestMultinomialFollowsWeights(t *testing.T) {
	const n = 4
	m, err := NewMultinomial(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetWeights([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	const epochs = 2000
	for e := 0; e < epochs; e++ {
		for _, id := range m.EpochOrder(e) {
			counts[id]++
		}
	}
	// Smoothed weights w_i + mean(w) = (3.5, 4.5, 5.5, 6.5), out of 20.
	total := float64(epochs * n)
	for i, c := range counts {
		want := (float64(i+1) + 2.5) / 20
		got := float64(c) / total
		if math.Abs(got-want) > 0.02 {
			t.Errorf("id %d: frequency %.3f, want %.3f", i, got, want)
		}
	}
}

func TestMultinomialSmoothingBoundsConcentration(t *testing.T) {
	m, _ := NewMultinomial(2, 4)
	m.SetWeights([]float64{0.0001, 1}) // floored to minWeight
	counts := make([]int, 2)
	for e := 0; e < 3000; e++ {
		for _, id := range m.EpochOrder(e) {
			counts[id]++
		}
	}
	// With weights ~(0, 1): eff = (0.5, 1.5) -> 25%/75%.
	frac := float64(counts[0]) / float64(counts[0]+counts[1])
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("smoothed low-weight frequency %.3f, want ~0.25", frac)
	}
}

func TestMultinomialValidation(t *testing.T) {
	if _, err := NewMultinomial(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	m, _ := NewMultinomial(3, 1)
	if err := m.SetWeights([]float64{1, 2}); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
}

func TestMultinomialWeightFloor(t *testing.T) {
	m, _ := NewMultinomial(2, 5)
	m.SetWeight(0, 0)
	if m.weights[0] <= 0 {
		t.Fatal("weight floor not applied")
	}
}

func TestAliasMatchesLinearScan(t *testing.T) {
	weights := []float64{0.5, 0, 3, 1.5, 2}
	rng := xrand.New(6)
	a := NewAlias(weights, rng)
	counts := make([]int, len(weights))
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[a.Draw()]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("alias id %d: %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasAllZeroWeights(t *testing.T) {
	a := NewAlias([]float64{0, 0, 0}, xrand.New(7))
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[a.Draw()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/30000-1.0/3) > 0.02 {
			t.Errorf("degenerate alias id %d frequency %.3f", i, float64(c)/30000)
		}
	}
}

func TestAliasNegativeWeightsClamped(t *testing.T) {
	a := NewAlias([]float64{-5, 1}, xrand.New(8))
	for i := 0; i < 10000; i++ {
		if a.Draw() == 0 {
			t.Fatal("negative-weight index drawn")
		}
	}
}
