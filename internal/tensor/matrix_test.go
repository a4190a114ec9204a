package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"spidercache/internal/xrand"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func randomMatrix(rows, cols int, rng *xrand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// naiveMatMul is the reference O(n^3) triple loop.
// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func matricesEqual(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("element %d: %g != %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		matricesEqual(t, MatMul(a, b), naiveMatMul(a, b))
	}
}

func TestMatMulATB(t *testing.T) {
	rng := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		k, m, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomMatrix(k, m, rng)
		b := randomMatrix(k, n, rng)
		at := New(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Data[j*at.Cols+i] = a.At(i, j)
			}
		}
		matricesEqual(t, MatMulATB(a, b), naiveMatMul(at, b))
	}
}

func TestMatMulABT(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(n, k, rng)
		bt := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Data[j*bt.Cols+i] = b.At(i, j)
			}
		}
		matricesEqual(t, MatMulABT(a, b), naiveMatMul(a, bt))
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

// TestFromRows: the rows are copied, not aliased, and no rows give 0x0.
func TestFromRows(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	m := FromRows(rows)
	if m.Rows != 2 || m.Cols != 3 || m.At(1, 0) != 4 || m.At(0, 2) != 3 {
		t.Fatalf("FromRows = %+v", m)
	}
	rows[0][0] = 9
	if m.At(0, 0) != 1 {
		t.Fatal("FromRows aliased its input")
	}
	if e := FromRows(nil); e.Rows != 0 || e.Cols != 0 {
		t.Fatalf("FromRows(nil) is %dx%d, want 0x0", e.Rows, e.Cols)
	}
}

func TestAddRowVec(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVec([]float64{10, 20, 30})
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddRowVec[%d] = %g, want %g", i, m.Data[i], v)
		}
	}
}

func TestColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := m.ColSums()
	want := []float64{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColSums[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestReLU(t *testing.T) {
	m := FromSlice(1, 4, []float64{-1, 0, 2, -3})
	m.ReLU()
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("ReLU[%d] = %g, want %g", i, m.Data[i], want[i])
		}
	}
}

func TestReLUBackward(t *testing.T) {
	act := FromSlice(1, 4, []float64{0, 1, 0, 3})
	grad := FromSlice(1, 4, []float64{5, 5, 5, 5})
	ReLUBackward(grad, act)
	want := []float64{0, 5, 0, 5}
	for i := range want {
		if grad.Data[i] != want[i] {
			t.Fatalf("ReLUBackward[%d] = %g, want %g", i, grad.Data[i], want[i])
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromSlice(3, 3, []float64{1, 5, 2, 9, 0, 0, 3, 3, 4})
	got := m.ArgmaxRows()
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgmaxRows[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ, exercised through MatMulABT/ATB consistency.
func TestMatMulTransposeConsistency(t *testing.T) {
	rng := xrand.New(4)
	check := func(seed uint16) bool {
		r := xrand.New(uint64(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		ab := MatMul(a, b)
		// MatMulABT(a, bt) where bt has rows=b.Cols: build bᵀ then multiply.
		bt := New(n, k)
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bt.Data[j*bt.Cols+i] = b.At(i, j)
			}
		}
		alt := MatMulABT(a, bt)
		for i := range ab.Data {
			if !almostEqual(ab.Data[i], alt.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulATBShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ATB accepted")
		}
	}()
	MatMulATB(New(3, 2), New(4, 5))
}

func TestMatMulABTShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ABT accepted")
		}
	}()
	MatMulABT(New(3, 2), New(4, 5))
}

func TestReLUBackwardShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ReLUBackward accepted")
		}
	}()
	ReLUBackward(New(2, 2), New(3, 3))
}

func TestAddRowVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length AddRowVec accepted")
		}
	}()
	New(2, 3).AddRowVec([]float64{1})
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative shape accepted")
		}
	}()
	New(-1, 2)
}
