package hnsw

// The distance kernels. Every sum below adds its terms in index order, one
// at a time, exactly as sqDist does: floating-point addition is not
// associative, and search results, link lists and from them whole training
// runs are a function of every distance's last bit. Speed comes from
// running several such sums side by side (sqDist4) or from stopping them
// early when only a comparison is wanted (anyBelow4), never from
// re-associating a sum. The float64 conversions forbid the compiler from
// fusing the multiply into the add on architectures with FMA, which would
// round once where amd64 rounds twice.

// sqDist returns the squared Euclidean distance between a and b[:len(a)].
func sqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += float64(d * d)
	}
	return s
}

// sqDist4 returns sqDist(a, q), sqDist(b, q), sqDist(c, q) and sqDist(d, q),
// bit for bit. One sqDist is a chain of dependent additions and runs at the
// latency of one add per component; four independent chains keep the adder
// busy while each waits on itself.
func sqDist4(q, a, b, c, d []float64) (sa, sb, sc, sd float64) {
	a, b, c, d = a[:len(q)], b[:len(q)], c[:len(q)], d[:len(q)]
	for i, qv := range q {
		da, db, dc, dd := a[i]-qv, b[i]-qv, c[i]-qv, d[i]-qv
		sa += float64(da * da)
		sb += float64(db * db)
		sc += float64(dc * dc)
		sd += float64(dd * dd)
	}
	return
}

// anyBelow4 reports whether any of sqDist(a, q), sqDist(b, q), sqDist(c, q),
// sqDist(d, q) is below bound, without always finishing the sums. Every term
// is a square, so it is >= 0 or NaN, and rounding is monotone, so a partial
// sum never exceeds a later one unless that one is NaN. Once a partial sum
// reaches bound the full sum is therefore >= bound or NaN, and either way
// not below it: stopping once all four have got there gives sqDist's
// answer. The bound is tested once per eight components.
func anyBelow4(q, a, b, c, d []float64, bound float64) bool {
	a, b, c, d = a[:len(q)], b[:len(q)], c[:len(q)], d[:len(q)]
	var sa, sb, sc, sd float64
	i := 0
	for ; i+8 <= len(q); i += 8 {
		for j := i; j < i+8; j++ {
			qv := q[j]
			da, db, dc, dd := a[j]-qv, b[j]-qv, c[j]-qv, d[j]-qv
			sa += float64(da * da)
			sb += float64(db * db)
			sc += float64(dc * dc)
			sd += float64(dd * dd)
		}
		if sa >= bound && sb >= bound && sc >= bound && sd >= bound {
			return false
		}
	}
	for ; i < len(q); i++ {
		qv := q[i]
		da, db, dc, dd := a[i]-qv, b[i]-qv, c[i]-qv, d[i]-qv
		sa += float64(da * da)
		sb += float64(db * db)
		sc += float64(dc * dc)
		sd += float64(dd * dd)
	}
	return sa < bound || sb < bound || sc < bound || sd < bound
}
