// Package code defines Calderbank-Shor-Steane (CSS) quantum error-correcting
// codes and a catalog of the [[n,k,d<5]] instances evaluated in the paper.
//
// A CSS code is given by two parity-check matrices Hx and Hz over GF(2) with
// Hx·Hzᵀ = 0. Rows of Hx are X-type stabilizer generators; rows of Hz are
// Z-type. The package computes logical operator bases and exact code
// distances by coset enumeration, which is feasible for the near-term code
// sizes this repository targets (n ≤ ~20).
package code

import (
	"fmt"
	"sync"

	"repro/internal/f2"
)

// CSS is a Calderbank-Shor-Steane stabilizer code.
type CSS struct {
	Name string
	N    int // physical qubits
	K    int // logical qubits

	Hx *f2.Mat // X-type stabilizer generators (full rank)
	Hz *f2.Mat // Z-type stabilizer generators (full rank)

	Lx *f2.Mat // X-type logical operator representatives, K rows
	Lz *f2.Mat // Z-type logical operator representatives, K rows

	distOnce sync.Once
	dist     int // cached distance, computed once under distOnce

	redOnce  sync.Once
	redBasis [2]*f2.Mat // RREF basis of ReductionGroup(t) at index t, computed once under redOnce
}

// New validates the check matrices, reduces them to full rank and computes
// logical operator bases. The distance is computed lazily by Distance.
func New(name string, hx, hz *f2.Mat) (*CSS, error) {
	if hx.Cols() != hz.Cols() {
		return nil, fmt.Errorf("code: Hx has %d columns, Hz has %d", hx.Cols(), hz.Cols())
	}
	n := hx.Cols()
	// CSS condition: every X generator commutes with every Z generator,
	// i.e. even overlap.
	for i := 0; i < hx.Rows(); i++ {
		for j := 0; j < hz.Rows(); j++ {
			if hx.Row(i).Dot(hz.Row(j)) != 0 {
				return nil, fmt.Errorf("code: Hx row %d anticommutes with Hz row %d", i, j)
			}
		}
	}
	hxr := hx.SpanBasis()
	hzr := hz.SpanBasis()
	k := n - hxr.Rows() - hzr.Rows()
	if k < 0 {
		return nil, fmt.Errorf("code: negative logical count (rank Hx %d + rank Hz %d > n=%d)", hxr.Rows(), hzr.Rows(), n)
	}
	c := &CSS{Name: name, N: n, K: k, Hx: hxr, Hz: hzr}
	c.Lz = logicalBasis(hxr, hzr) // Z logicals: ker(Hx) mod rowspan(Hz)
	c.Lx = logicalBasis(hzr, hxr) // X logicals: ker(Hz) mod rowspan(Hx)
	if c.Lz.Rows() != k || c.Lx.Rows() != k {
		return nil, fmt.Errorf("code: logical basis has %d/%d rows, want k=%d", c.Lz.Rows(), c.Lx.Rows(), k)
	}
	return c, nil
}

// MustNew is New but panics on error; intended for the static catalog.
func MustNew(name string, hx, hz *f2.Mat) *CSS {
	c, err := New(name, hx, hz)
	if err != nil {
		panic(err)
	}
	return c
}

// logicalBasis returns representatives of ker(checks) modulo rowspan(stabs):
// vectors orthogonal to every row of checks that are independent of the
// stabs rows.
func logicalBasis(checks, stabs *f2.Mat) *f2.Mat {
	ker := checks.Kernel()
	acc := stabs.Clone()
	out := f2.NewMat(checks.Cols())
	rank := acc.Rank()
	for i := 0; i < ker.Rows(); i++ {
		cand := ker.Row(i)
		trial := acc.Clone()
		trial.MustAppendRow(cand.Clone())
		if r := trial.Rank(); r > rank {
			rank = r
			acc = trial
			out.MustAppendRow(cand.Clone())
		}
	}
	return out
}

// DistanceZ returns the minimum weight of a non-trivial Z-type logical
// operator: min wt over ker(Hx) \ rowspan(Hz).
func (c *CSS) DistanceZ() int {
	return minLogicalWeight(c.Lz, c.Hz)
}

// DistanceX returns the minimum weight of a non-trivial X-type logical
// operator: min wt over ker(Hz) \ rowspan(Hx).
func (c *CSS) DistanceX() int {
	return minLogicalWeight(c.Lx, c.Hx)
}

// Distance returns the code distance d = min(dX, dZ). The result is cached;
// the once-guard makes concurrent callers (e.g. batch items sharing one
// cached protocol) race-free.
func (c *CSS) Distance() int {
	c.distOnce.Do(func() {
		dz := c.DistanceZ()
		dx := c.DistanceX()
		if dx < dz {
			c.dist = dx
		} else {
			c.dist = dz
		}
	})
	return c.dist
}

// minLogicalWeight minimizes weight over all 2^k-1 non-trivial logical
// classes, each reduced modulo the stabilizer span.
func minLogicalWeight(logicals, stabs *f2.Mat) int {
	if logicals.Rows() == 0 {
		return 0
	}
	best := -1
	// Enumerate non-zero combinations of logical representatives.
	f2.SpanForEach(logicals, func(v f2.Vec) bool {
		if v.IsZero() {
			return true
		}
		if w := f2.CosetMinWeight(v, stabs); best < 0 || w < best {
			best = w
		}
		return best != 1
	})
	return best
}

// Params returns the [[n,k,d]] string of the code.
func (c *CSS) Params() string {
	return fmt.Sprintf("[[%d,%d,%d]]", c.N, c.K, c.Distance())
}

// ZStabilizerGroup returns a generating set for the Z-type stabilizer group
// of the logical |0..0> state: the Hz rows together with the Z logicals.
// Measuring any element of its span leaves |0..0>_L invariant.
func (c *CSS) ZStabilizerGroup() *f2.Mat {
	g := c.Hz.Clone()
	for i := 0; i < c.Lz.Rows(); i++ {
		g.MustAppendRow(c.Lz.Row(i).Clone())
	}
	return g
}

// XStabilizerGroup returns the X-type stabilizer generators of |0..0>_L
// (the Hx rows; X logicals do not stabilize the zero state).
func (c *CSS) XStabilizerGroup() *f2.Mat {
	return c.Hx.Clone()
}

// Dual returns the CSS code with the X and Z roles exchanged
// (Hx ↔ Hz, Lx ↔ Lz). Synthesizing the deterministic preparation of
// |0...0>_L for the dual code yields, after conjugating every qubit by a
// Hadamard, the preparation of |+...+>_L for the original code; this is the
// standard X↔Z mirror trick.
func (c *CSS) Dual() *CSS {
	// The distance and basis caches are deliberately not carried over:
	// reading them here would race with their first computation, and the
	// dual's own once-guards would ignore pre-seeded values anyway.
	return &CSS{
		Name: c.Name + "-dual",
		N:    c.N,
		K:    c.K,
		Hx:   c.Hz.Clone(),
		Hz:   c.Hx.Clone(),
		Lx:   c.Lz.Clone(),
		Lz:   c.Lx.Clone(),
	}
}

// String returns a short description.
func (c *CSS) String() string {
	return fmt.Sprintf("%s %s", c.Name, c.Params())
}
