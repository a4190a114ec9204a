package tensor

import (
	"math"
	"testing"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, -1, 0, 1})
	m.SoftmaxRows()
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v <= 0 || v >= 1 {
				t.Fatalf("softmax value %g out of (0,1)", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromSlice(1, 2, []float64{1000, 1001})
	m.SoftmaxRows()
	for _, v := range m.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", m.Row(0))
		}
	}
	if m.At(0, 1) <= m.At(0, 0) {
		t.Fatal("ordering lost")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	m := FromSlice(1, 2, []float64{0, 0})
	m.SoftmaxRows() // -> [0.5, 0.5]
	losses := CrossEntropyRows(m, []int{0})
	if math.Abs(losses[0]-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %g, want ln2", losses[0])
	}
}

func TestCrossEntropyFloorsProbability(t *testing.T) {
	m := FromSlice(1, 2, []float64{0, 1})
	// Force a zero probability without softmax.
	m.Data[0] = 0
	losses := CrossEntropyRows(m, []int{0})
	if math.IsInf(losses[0], 0) || math.IsNaN(losses[0]) {
		t.Fatalf("loss not floored: %g", losses[0])
	}
}

func TestSoftmaxCrossEntropyGradSumsToZeroish(t *testing.T) {
	// For correct-label one-hot targets, each row of the gradient sums to 0
	// (probs sum to 1 and we subtract 1 at the label).
	m := FromSlice(2, 3, []float64{1, 2, 3, 0, 0, 0})
	m.SoftmaxRows()
	SoftmaxCrossEntropyGrad(m, []int{2, 0}, nil)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("grad row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxCrossEntropyGradZeroWeightSkips(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	m.SoftmaxRows()
	SoftmaxCrossEntropyGrad(m, []int{0}, []float64{0})
	for _, v := range m.Row(0) {
		if v != 0 {
			t.Fatalf("zero-weight row has gradient %v", m.Row(0))
		}
	}
}

// TestGradientNumerically verifies the analytic softmax-CE gradient against
// central finite differences.
func TestGradientNumerically(t *testing.T) {
	logits := []float64{0.3, -0.7, 1.1}
	label := 1
	loss := func(z []float64) float64 {
		m := FromSlice(1, 3, append([]float64(nil), z...))
		m.SoftmaxRows()
		return CrossEntropyRows(m, []int{label})[0]
	}
	m := FromSlice(1, 3, append([]float64(nil), logits...))
	m.SoftmaxRows()
	SoftmaxCrossEntropyGrad(m, []int{label}, nil)
	const h = 1e-6
	for j := 0; j < 3; j++ {
		zp := append([]float64(nil), logits...)
		zm := append([]float64(nil), logits...)
		zp[j] += h
		zm[j] -= h
		num := (loss(zp) - loss(zm)) / (2 * h)
		if math.Abs(num-m.At(0, j)) > 1e-5 {
			t.Fatalf("grad[%d]: analytic %g, numeric %g", j, m.At(0, j), num)
		}
	}
}
