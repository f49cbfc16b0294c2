package code

import "repro/internal/f2"

// ErrType distinguishes the two CSS error sectors.
type ErrType int

// Error sectors.
const (
	ErrX ErrType = iota // bit-flip errors (detected by Z-type measurements)
	ErrZ                // phase-flip errors (detected by X-type measurements)
)

// Opposite returns the other sector.
func (t ErrType) Opposite() ErrType {
	if t == ErrX {
		return ErrZ
	}
	return ErrX
}

func (t ErrType) String() string {
	if t == ErrX {
		return "X"
	}
	return "Z"
}

// DetectionGroup returns a basis of the group of stabilizers of |0...0>_L
// whose measurement detects errors of sector t without disturbing the state:
// Z-type stabilizers (including logical Zs) for X errors, X-type stabilizers
// for Z errors.
func (c *CSS) DetectionGroup(t ErrType) *f2.Mat {
	if t == ErrX {
		return c.ZStabilizerGroup()
	}
	return c.XStabilizerGroup()
}

// ReductionGroup returns the basis modulo which errors of sector t act
// trivially on |0...0>_L: X-type stabilizers for X errors, Z-type
// stabilizers plus logical Zs for Z errors.
func (c *CSS) ReductionGroup(t ErrType) *f2.Mat {
	if t == ErrX {
		return c.XStabilizerGroup()
	}
	return c.ZStabilizerGroup()
}

// ReducedWeight returns wt_S(e) for an error e of sector t on |0...0>_L:
// the minimum weight over the coset e + ReductionGroup(t).
func (c *CSS) ReducedWeight(t ErrType, e f2.Vec) int {
	return f2.CosetMinWeightReduced(e, c.reductionBasis(t))
}

// CosetRep returns the canonical representative of e modulo
// ReductionGroup(t), obtained by eliminating the group's RREF pivots. Two
// errors are equivalent on |0...0>_L exactly when their representatives are
// equal.
func (c *CSS) CosetRep(t ErrType, e f2.Vec) f2.Vec {
	red := c.reductionBasis(t)
	out := e.Clone()
	for i := 0; i < red.Rows(); i++ {
		p := red.Row(i).FirstOne()
		if p >= 0 && out.Get(p) {
			out.XorInPlace(red.Row(i))
		}
	}
	return out
}

// reductionBasis returns the RREF basis of ReductionGroup(t), computed for
// both sectors on first use and shared read-only after that.
func (c *CSS) reductionBasis(t ErrType) *f2.Mat {
	c.redOnce.Do(func() {
		c.redBasis[ErrX] = c.ReductionGroup(ErrX).SpanBasis()
		c.redBasis[ErrZ] = c.ReductionGroup(ErrZ).SpanBasis()
	})
	return c.redBasis[t]
}
