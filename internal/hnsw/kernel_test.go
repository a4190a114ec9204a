package hnsw

import (
	"encoding/binary"
	"math"
	"testing"

	"spidercache/internal/xrand"
)

// sameBits reports whether x and y are the same float64, any NaN equal to
// any other.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// checkKernels holds the two kernels to their definitions in terms of
// sqDist for one query, four rows and a set of bounds.
func checkKernels(t *testing.T, q []float64, rows [4][]float64, bounds []float64) {
	t.Helper()
	var want [4]float64
	for i, r := range rows {
		want[i] = sqDist(r, q)
	}
	var got [4]float64
	got[0], got[1], got[2], got[3] = sqDist4(q, rows[0], rows[1], rows[2], rows[3])
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("dim %d: sqDist4 lane %d = %x, sqDist = %x", len(q), i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	// The distances themselves and their neighbours are the bounds an early
	// exit is most likely to get wrong.
	for _, w := range want {
		bounds = append(bounds, w, math.Nextafter(w, math.Inf(1)), math.Nextafter(w, math.Inf(-1)), w/2)
	}
	for _, bound := range bounds {
		any := false
		for _, w := range want {
			any = any || w < bound
		}
		if got := anyBelow4(q, rows[0], rows[1], rows[2], rows[3], bound); got != any {
			t.Fatalf("dim %d: anyBelow4(bound %g) = %v, distances %v", len(q), bound, got, want)
		}
	}
}

var specialBounds = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, math.MaxFloat64}

func TestKernelsMatchSqDist(t *testing.T) {
	rng := xrand.New(11)
	for dim := 1; dim <= 67; dim++ {
		for round := 0; round < 8; round++ {
			q := randomVec(dim, rng)
			var rows [4][]float64
			for i := range rows {
				rows[i] = randomVec(dim, rng)
			}
			switch round {
			case 1: // a row equal to the query: distance exactly 0
				rows[1] = append([]float64(nil), q...)
			case 2: // all rows the same
				rows[1], rows[2], rows[3] = rows[0], rows[0], rows[0]
			case 3: // denormal differences
				for i := range rows {
					for j := range rows[i] {
						rows[i][j] = q[j] + float64(j%3)*math.SmallestNonzeroFloat64
					}
				}
			case 4: // squares that overflow
				rows[2][dim/2] = math.MaxFloat64
				rows[3][dim-1] = -math.MaxFloat64
			case 5: // non-finite components, early, late and on both sides
				rows[0][0] = math.NaN()
				rows[1][dim-1] = math.Inf(1)
				rows[2][dim/2] = math.Inf(-1)
				q[dim/3] = math.Inf(-1)
			case 6: // widely different scales along the sum
				for i := range rows {
					for j := range rows[i] {
						rows[i][j] *= math.Pow(10, float64((j*7)%31-15))
					}
				}
			}
			checkKernels(t, q, rows, specialBounds)
		}
	}
}

// FuzzKernels reads a dimension, a bound and five vectors' worth of raw
// float64 bit patterns, so that the fuzzer reaches NaN payloads, denormals
// and infinities on its own.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(3), 0.5, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(67), math.Inf(1), []byte{0xff, 0xf0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(9), math.NaN(), []byte{})
	f.Fuzz(func(t *testing.T, dim uint8, bound float64, raw []byte) {
		n := int(dim)%67 + 1
		vecs := make([][]float64, 5)
		var word [8]byte
		at := 0
		for i := range vecs {
			vecs[i] = make([]float64, n)
			for j := range vecs[i] {
				for k := range word {
					if len(raw) > 0 {
						word[k] = raw[at%len(raw)] + byte(at/len(raw))
					}
					at++
				}
				vecs[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
			}
		}
		checkKernels(t, vecs[0], [4][]float64{vecs[1], vecs[2], vecs[3], vecs[4]}, []float64{bound})
	})
}
