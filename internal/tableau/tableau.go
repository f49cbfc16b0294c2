// Package tableau implements the Aaronson-Gottesman stabilizer tableau
// simulator (Phys. Rev. A 70, 052328): efficient classical simulation of
// Clifford circuits with destabilizer bookkeeping, Z- and X-basis
// measurement and Pauli-observable expectation values.
//
// In this repository the simulator is the ground truth used to verify that
// synthesized preparation circuits produce exactly the intended encoded
// state (every target stabilizer must measure +1 deterministically).
package tableau

import (
	"fmt"

	"repro/internal/f2"
	"repro/internal/pauli"
)

// Tableau tracks the stabilizer group of an n-qubit state. Rows 0..n-1 are
// destabilizers, rows n..2n-1 stabilizers; one extra scratch row is used by
// measurements. The initial state is |0...0>.
type Tableau struct {
	n int
	x []f2.Vec // x parts, 2n+1 rows
	z []f2.Vec // z parts
	r []uint8  // phase bits (0: +1, 1: -1)
}

// New returns a tableau for n qubits in the state |0...0>.
func New(n int) *Tableau {
	t := &Tableau{
		n: n,
		x: make([]f2.Vec, 2*n+1),
		z: make([]f2.Vec, 2*n+1),
		r: make([]uint8, 2*n+1),
	}
	for i := range t.x {
		t.x[i] = f2.NewVec(n)
		t.z[i] = f2.NewVec(n)
	}
	for i := 0; i < n; i++ {
		t.x[i].Set(i, true)   // destabilizer i = X_i
		t.z[n+i].Set(i, true) // stabilizer i = Z_i
	}
	return t
}

// H applies a Hadamard gate to qubit q.
func (t *Tableau) H(q int) {
	t.checkQubit(q)
	for i := 0; i < 2*t.n; i++ {
		xi, zi := t.x[i].Get(q), t.z[i].Get(q)
		if xi && zi {
			t.r[i] ^= 1
		}
		t.x[i].Set(q, zi)
		t.z[i].Set(q, xi)
	}
}

// CNOT applies a controlled-NOT with the given control and target qubits.
func (t *Tableau) CNOT(ctrl, tgt int) {
	t.checkQubit(ctrl)
	t.checkQubit(tgt)
	if ctrl == tgt {
		panic("tableau: CNOT control equals target")
	}
	for i := 0; i < 2*t.n; i++ {
		xc, zc := t.x[i].Get(ctrl), t.z[i].Get(ctrl)
		xt, zt := t.x[i].Get(tgt), t.z[i].Get(tgt)
		if xc && zt && (xt == zc) {
			t.r[i] ^= 1
		}
		t.x[i].Set(tgt, xt != xc)
		t.z[i].Set(ctrl, zc != zt)
	}
}

// X applies a Pauli X to qubit q.
func (t *Tableau) X(q int) {
	t.checkQubit(q)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i].Get(q) {
			t.r[i] ^= 1
		}
	}
}

// Z applies a Pauli Z to qubit q.
func (t *Tableau) Z(q int) {
	t.checkQubit(q)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i].Get(q) {
			t.r[i] ^= 1
		}
	}
}

func (t *Tableau) checkQubit(q int) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("tableau: qubit %d out of range [0,%d)", q, t.n))
	}
}

// phaseExp returns the exponent of i contributed by multiplying the
// single-qubit Paulis (x1,z1)·(x2,z2), per Aaronson-Gottesman's g function.
func phaseExp(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1: // I
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rowsum sets row h to row h times row i, with exact phase tracking.
func (t *Tableau) rowsum(h, i int) {
	sum := 2*int(t.r[h]) + 2*int(t.r[i])
	for q := 0; q < t.n; q++ {
		sum += phaseExp(t.x[i].Get(q), t.z[i].Get(q), t.x[h].Get(q), t.z[h].Get(q))
	}
	// For stabilizer and scratch rows the sum is provably 0 or 2 mod 4;
	// destabilizer rows may pick up a factor ±i whose phase is irrelevant,
	// so no realness assertion is made here.
	sum = ((sum % 4) + 4) % 4
	t.r[h] = uint8(sum / 2)
	t.x[h].XorInPlace(t.x[i])
	t.z[h].XorInPlace(t.z[i])
}

// MeasureZ measures qubit q in the Z basis. If the outcome is random, rnd()
// supplies the result; rnd may be nil for deterministic measurements and for
// a convention of always returning 0 on random outcomes.
// It returns the outcome (false: +1/|0>, true: -1/|1>) and whether the
// outcome was deterministic.
func (t *Tableau) MeasureZ(q int, rnd func() bool) (outcome, deterministic bool) {
	t.checkQubit(q)
	n := t.n
	p := -1
	for i := n; i < 2*n; i++ {
		if t.x[i].Get(q) {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome.
		for i := 0; i < 2*n; i++ {
			if i != p && t.x[i].Get(q) {
				t.rowsum(i, p)
			}
		}
		// Destabilizer partner becomes the old stabilizer.
		t.x[p-n] = t.x[p].Clone()
		t.z[p-n] = t.z[p].Clone()
		t.r[p-n] = t.r[p]
		// New stabilizer is ±Z_q.
		t.x[p] = f2.NewVec(n)
		t.z[p] = f2.NewVec(n)
		t.z[p].Set(q, true)
		out := false
		if rnd != nil {
			out = rnd()
		}
		if out {
			t.r[p] = 1
		} else {
			t.r[p] = 0
		}
		return out, false
	}
	// Deterministic outcome: accumulate into the scratch row.
	s := 2 * n
	t.x[s] = f2.NewVec(n)
	t.z[s] = f2.NewVec(n)
	t.r[s] = 0
	for i := 0; i < n; i++ {
		if t.x[i].Get(q) {
			t.rowsum(s, i+n)
		}
	}
	return t.r[s] == 1, true
}

// MeasureX measures qubit q in the X basis by conjugating with H.
func (t *Tableau) MeasureX(q int, rnd func() bool) (outcome, deterministic bool) {
	t.H(q)
	out, det := t.MeasureZ(q, rnd)
	t.H(q)
	return out, det
}

// ResetZ measures qubit q in Z and flips it to |0> if needed.
func (t *Tableau) ResetZ(q int, rnd func() bool) {
	if out, _ := t.MeasureZ(q, rnd); out {
		t.X(q)
	}
}

// Expectation returns the expectation value of the Pauli observable p on the
// current state: +1 or -1 if ±p stabilizes the state, 0 otherwise. The
// operator is interpreted with a +1 phase convention; per-qubit Y factors
// are i·X·Z and handled by exact phase arithmetic.
func (t *Tableau) Expectation(p pauli.Pauli) int {
	if p.N() != t.n {
		panic(fmt.Sprintf("tableau: operator on %d qubits, state has %d", p.N(), t.n))
	}
	n := t.n
	// If p anticommutes with any stabilizer, expectation is 0.
	for i := n; i < 2*n; i++ {
		if (p.X.Dot(t.z[i])+p.Z.Dot(t.x[i]))%2 == 1 {
			return 0
		}
	}
	// p commutes with the full stabilizer group, so it is ± a product of
	// stabilizers (for pure stabilizer states, the commutant of S within
	// the Pauli group modulo phase is S itself times logicals; if p is not
	// in ±S the expectation is 0 — detected by a product mismatch below).
	s := 2 * n
	t.x[s] = f2.NewVec(n)
	t.z[s] = f2.NewVec(n)
	t.r[s] = 0
	for i := 0; i < n; i++ {
		// p anticommutes with destabilizer i exactly when stabilizer i
		// appears in the product.
		if (p.X.Dot(t.z[i])+p.Z.Dot(t.x[i]))%2 == 1 {
			t.rowsum(s, i+n)
		}
	}
	if !t.x[s].Equal(p.X) || !t.z[s].Equal(p.Z) {
		return 0
	}
	// Account for the phase of p itself: p was given as a product of X and
	// Z parts with Y = iXZ convention. Convert the scratch row (exact
	// phase) against the same convention: the scratch phase r counts -1
	// factors relative to the canonical i^(x·z) normalization, identical
	// to the convention used for p, so they cancel directly.
	if t.r[s] == 0 {
		return 1
	}
	return -1
}
