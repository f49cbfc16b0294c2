// Package f2 implements linear algebra over the two-element field GF(2).
//
// Vectors are bit-packed into 64-bit words, so inner products, additions and
// weight computations cost O(n/64). The package provides the primitives the
// rest of the repository is built on: row reduction, kernel and solution-space
// computation, span enumeration and coset minimum-weight search, which is the
// workhorse behind stabilizer-reduced error weights wt_S(e).
package f2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a vector over GF(2) with a fixed length. The zero value is a
// zero-length vector; use NewVec to create a vector of a given length.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns the zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("f2: negative vector length")
	}
	return Vec{n: n, w: make([]uint64, (n+63)/64)}
}

// FromSupport returns the length-n vector with ones exactly at the given
// positions. Duplicate positions toggle the bit an extra time.
func FromSupport(n int, support ...int) Vec {
	v := NewVec(n)
	for _, i := range support {
		v.Flip(i)
	}
	return v
}

// FromString parses a vector from a string of '0' and '1' runes, ignoring
// spaces. It reports an error on any other rune.
func FromString(s string) (Vec, error) {
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return -1
		}
		return r
	}, s)
	v := NewVec(len(clean))
	for i, r := range clean {
		switch r {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return Vec{}, fmt.Errorf("f2: invalid bit %q in %q", r, s)
		}
	}
	return v, nil
}

// MustFromString is FromString but panics on malformed input. It is intended
// for compile-time-constant code tables.
func MustFromString(s string) Vec {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len returns the length of the vector.
func (v Vec) Len() int { return v.n }

// Get reports whether coordinate i is one.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.w[i/64]>>(uint(i)%64)&1 == 1
}

// Set sets coordinate i to the given value.
func (v Vec) Set(i int, one bool) {
	v.check(i)
	if one {
		v.w[i/64] |= 1 << (uint(i) % 64)
	} else {
		v.w[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Flip toggles coordinate i.
func (v Vec) Flip(i int) {
	v.check(i)
	v.w[i/64] ^= 1 << (uint(i) % 64)
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("f2: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// XorInPlace adds u to v in place. The lengths must match.
func (v Vec) XorInPlace(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("f2: length mismatch %d != %d", v.n, u.n))
	}
	for i, x := range u.w {
		v.w[i] ^= x
	}
}

// Xor returns the sum v+u as a new vector.
func (v Vec) Xor(u Vec) Vec {
	c := v.Clone()
	c.XorInPlace(u)
	return c
}

// Dot returns the inner product <v,u> over GF(2).
func (v Vec) Dot(u Vec) int {
	if v.n != u.n {
		panic(fmt.Sprintf("f2: length mismatch %d != %d", v.n, u.n))
	}
	var acc uint64
	for i, x := range u.w {
		acc ^= v.w[i] & x
	}
	return bits.OnesCount64(acc) & 1
}

// Weight returns the Hamming weight of v.
func (v Vec) Weight() int {
	w := 0
	for _, x := range v.w {
		w += bits.OnesCount64(x)
	}
	return w
}

// IsZero reports whether all coordinates are zero.
func (v Vec) IsZero() bool {
	for _, x := range v.w {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same length and coordinates.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i, x := range u.w {
		if v.w[i] != x {
			return false
		}
	}
	return true
}

// Support returns the sorted indices of the non-zero coordinates.
func (v Vec) Support() []int {
	s := make([]int, 0, v.Weight())
	for wi, word := range v.w {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			s = append(s, wi*64+b)
			word &= word - 1
		}
	}
	return s
}

// Words exposes the backing bit words of v (little-endian: coordinate i is
// bit i%64 of word i/64; the tail bits of the last word are zero). It is a
// view, not a copy — callers must treat it as read-only. It exists so the
// compiled simulation engine can intern vectors into flat word arrays
// without per-shot conversions.
func (v Vec) Words() []uint64 { return v.w }

// FirstOne returns the index of the lowest set bit, or -1 if v is zero.
func (v Vec) FirstOne() int {
	for wi, word := range v.w {
		if word != 0 {
			return wi*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Key returns a compact string usable as a map key. Two vectors have equal
// keys exactly when they are Equal.
func (v Vec) Key() string {
	var sb strings.Builder
	sb.Grow(len(v.w)*8 + 4)
	fmt.Fprintf(&sb, "%d:", v.n)
	for _, x := range v.w {
		for i := 0; i < 8; i++ {
			sb.WriteByte(byte(x >> (8 * i)))
		}
	}
	return sb.String()
}

// String renders the vector as a bit string, e.g. "1010".
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
