// Package decoder implements the syndrome lookup-table decoder used for the
// perfect error-correction round at the end of the simulated protocols
// (Section V.B of the paper): each syndrome maps to a minimum-weight error
// producing it, found by breadth-first enumeration over error weights.
package decoder

import (
	"repro/internal/f2"
)

// Lookup is a complete syndrome → minimum-weight-error table for one parity
// check matrix.
type Lookup struct {
	h     *f2.Mat
	n     int
	table map[string]f2.Vec
}

// NewLookup builds the table for check matrix h. Enumeration proceeds by
// increasing error weight until every reachable syndrome has a
// representative; for the near-term codes targeted here the tables have at
// most 2^10 entries.
func NewLookup(h *f2.Mat) *Lookup {
	l := &Lookup{h: h.SpanBasis(), n: h.Cols(), table: map[string]f2.Vec{}}
	total := 1 << uint(l.h.Rows())
	// Weight-0 entry.
	zero := f2.NewVec(l.n)
	l.table[l.h.MulVec(zero).Key()] = zero

	sup := make([]int, 0, l.n)
	var rec func(start, left int)
	rec = func(start, left int) {
		if len(l.table) == total {
			return
		}
		if left == 0 {
			e := f2.FromSupport(l.n, sup...)
			key := l.h.MulVec(e).Key()
			if _, ok := l.table[key]; !ok {
				l.table[key] = e
			}
			return
		}
		for q := start; q <= l.n-left; q++ {
			sup = append(sup, q)
			rec(q+1, left-1)
			sup = sup[:len(sup)-1]
		}
	}
	for w := 1; w <= l.n && len(l.table) < total; w++ {
		rec(0, w)
	}
	return l
}

// Decode returns the minimum-weight error consistent with the syndrome of e
// (i.e. the table entry for h·e). The returned vector shares no storage
// with the table.
func (l *Lookup) Decode(e f2.Vec) f2.Vec {
	return l.DecodeSyndrome(l.h.MulVec(e))
}

// DecodeSyndrome returns the correction for an explicit syndrome vector.
// Unknown syndromes (impossible for full tables) decode to zero.
func (l *Lookup) DecodeSyndrome(s f2.Vec) f2.Vec {
	if c, ok := l.table[s.Key()]; ok {
		return c.Clone()
	}
	return f2.NewVec(l.n)
}
