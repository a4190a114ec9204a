// Package tensor implements the dense linear algebra needed by the
// from-scratch neural network in internal/nn.
//
// It is intentionally small: row-major float64 matrices with the handful of
// kernels a multilayer perceptron needs (matmul with optional transposes,
// broadcast row operations, elementwise maps, reductions). Kernels are
// written cache-friendly (ikj loop order) and, for large enough products,
// fan out through par.For, partitioned by output row (see parallel.go);
// results are bitwise-identical to the serial kernels. GOMAXPROCS caps the
// parallelism; small matrices always take the serial fallback.
package tensor

import (
	"fmt"

	"spidercache/internal/par"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero-initialised Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows copies rows, all of one length, into a len(rows) x len(rows[0])
// matrix; no rows give a 0x0 matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

func (m *Matrix) sameShape(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// MatMul returns a * b. Shapes: (m x k) * (k x n) -> (m x n).
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner dims %d vs %d", a.Cols, b.Rows))
	}
	dst := New(a.Rows, b.Cols)
	if w := planWorkers(a.Rows, a.Rows*a.Cols*b.Cols); w > 1 {
		parallelKernels.Add(1)
		par.For(w, a.Rows, func(r0, r1 int) { matMulRows(dst, a, b, r0, r1) })
	} else {
		serialKernels.Add(1)
		matMulRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// matMulRows computes dst rows [r0, r1) of a*b with the ikj kernel.
func matMulRows(dst, a, b *Matrix, r0, r1 int) {
	n := b.Cols
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulATB returns aᵀ * b. Shapes: (k x m)ᵀ * (k x n) -> (m x n).
func MatMulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulATB outer dims %d vs %d", a.Rows, b.Rows))
	}
	dst := New(a.Cols, b.Cols)
	if w := planWorkers(a.Cols, a.Rows*a.Cols*b.Cols); w > 1 {
		parallelKernels.Add(1)
		par.For(w, a.Cols, func(i0, i1 int) { matMulATBRows(dst, a, b, i0, i1) })
	} else {
		serialKernels.Add(1)
		matMulATBRows(dst, a, b, 0, a.Cols)
	}
	return dst
}

// matMulATBRows computes dst rows [i0, i1) of aᵀ*b. The k loop stays
// outermost so each dst element accumulates in the same ascending-k order as
// the serial kernel (bitwise-identical results).
func matMulATBRows(dst, a, b *Matrix, i0, i1 int) {
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulABT returns a * bᵀ. Shapes: (m x k) * (n x k)ᵀ -> (m x n).
func MatMulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABT inner dims %d vs %d", a.Cols, b.Cols))
	}
	dst := New(a.Rows, b.Rows)
	if w := planWorkers(a.Rows, a.Rows*a.Cols*b.Rows); w > 1 {
		parallelKernels.Add(1)
		par.For(w, a.Rows, func(r0, r1 int) { matMulABTRows(dst, a, b, r0, r1) })
	} else {
		serialKernels.Add(1)
		matMulABTRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// matMulABTRows computes dst rows [r0, r1) of a*bᵀ.
func matMulABTRows(dst, a, b *Matrix, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// AddRowVec adds vector v (length Cols) to every row of m in place.
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ColSums returns the per-column sums of m as a length-Cols slice.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// ReLU applies max(0, x) in place.
func (m *Matrix) ReLU() {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

// ReLUBackward zeroes grad elements where the corresponding pre-activation
// output act is <= 0 (act must be the post-ReLU activations).
func ReLUBackward(grad, act *Matrix) {
	grad.sameShape(act)
	for i, v := range act.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
}

// ArgmaxRows returns, for each row, the index of its maximum element.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}
