package f2

import "math/bits"

// MaxSpanRows bounds the exponent of span enumeration: CosetMinWeight,
// CosetMinWeightReduced and SpanForEach panic on a basis of more independent
// rows. 2^24 vectors is a few hundred milliseconds and far above anything
// the d<5 catalog needs.
const MaxSpanRows = 24

// CosetMinWeight returns min_{s in rowspan(basis)} wt(e + s): the minimum
// Hamming weight of the coset e + span. This implements the
// stabilizer-reduced weight wt_S(e) of the paper for a basis of the
// stabilizer group restricted to one Pauli type.
//
// The span is enumerated with a Gray code, so each step costs one vector
// addition. basis is reduced to an independent set first, keeping the
// exponent minimal. It panics if the reduced basis has more than 24 rows.
func CosetMinWeight(e Vec, basis *Mat) int {
	return CosetMinWeightReduced(e, basis.SpanBasis())
}

// CosetMinWeightReduced is CosetMinWeight over a basis that is already
// independent, such as one SpanBasis returned. It reduces nothing and keeps
// no representative, so a caller that holds the reduced basis of a group
// pays only for the Gray-code walk. It panics if red has more than 24 rows.
func CosetMinWeightReduced(e Vec, red *Mat) int {
	r := red.Rows()
	if r > MaxSpanRows {
		panic("f2: coset enumeration over more than 2^24 elements")
	}
	best := e.Weight()
	cur := e.Clone()
	// Gray code: on step i, toggle basis row TrailingZeros(i).
	for i := uint64(1); i < 1<<uint(r) && best > 0; i++ {
		cur.XorInPlace(red.Row(bits.TrailingZeros64(i)))
		if w := cur.Weight(); w < best {
			best = w
		}
	}
	return best
}

// SpanForEach calls fn for every vector in the row span of basis, including
// the zero vector. The argument passed to fn is reused between calls; clone
// it to retain. Enumeration stops early if fn returns false.
func SpanForEach(basis *Mat, fn func(Vec) bool) {
	red := basis.SpanBasis()
	r := red.Rows()
	if r > MaxSpanRows {
		panic("f2: span enumeration over more than 2^24 elements")
	}
	cur := NewVec(basis.Cols())
	if !fn(cur) {
		return
	}
	for i := uint64(1); i < 1<<uint(r); i++ {
		cur.XorInPlace(red.Row(bits.TrailingZeros64(i)))
		if !fn(cur) {
			return
		}
	}
}

// MinWeightNonZero returns the minimum Hamming weight over the non-zero
// vectors of the row span of basis, or -1 for a rank-zero basis.
func MinWeightNonZero(basis *Mat) int {
	best := -1
	first := true
	SpanForEach(basis, func(v Vec) bool {
		if first {
			first = false // skip the zero vector
			return true
		}
		if w := v.Weight(); best < 0 || w < best {
			best = w
		}
		return best != 1 // weight 1 is the global minimum for non-zero vectors
	})
	return best
}
