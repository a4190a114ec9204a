package nn

import (
	"testing"

	"spidercache/internal/tensor"
	"spidercache/internal/xrand"
)

func benchModel(b *testing.B) (*MLP, *tensor.Matrix, []int) {
	b.Helper()
	rng := xrand.New(1)
	cfg := MLPConfig{InputDim: 32, HiddenDim: 128, EmbedDim: 32, Classes: 10, LR: 0.05, Momentum: 0.9}
	m, err := NewMLP(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 32)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 10
		for j := 0; j < 32; j++ {
			x.Data[i*x.Cols+j] = rng.NormFloat64()
		}
	}
	return m, x, labels
}

func BenchmarkForward(b *testing.B) {
	m, x, labels := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, labels)
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	m, x, labels := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, labels)
		m.Backward(nil)
	}
}
