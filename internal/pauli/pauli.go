// Package pauli represents n-qubit Pauli operators in the symplectic
// (binary) picture: an operator P is a pair of GF(2) vectors (x, z) where
// x[i]=1 means P acts as X (or Y) on qubit i and z[i]=1 means Z (or Y).
// Phases are not tracked; they are irrelevant for the error-propagation and
// commutation questions in this repository.
package pauli

import (
	"fmt"
	"strings"

	"repro/internal/f2"
)

// Pauli is an n-qubit Pauli operator without phase.
type Pauli struct {
	X f2.Vec
	Z f2.Vec
}

// New returns the identity operator on n qubits.
func New(n int) Pauli {
	return Pauli{X: f2.NewVec(n), Z: f2.NewVec(n)}
}

// XOp returns the operator with Pauli X on the given qubits.
func XOp(n int, qubits ...int) Pauli {
	return Pauli{X: f2.FromSupport(n, qubits...), Z: f2.NewVec(n)}
}

// ZOp returns the operator with Pauli Z on the given qubits.
func ZOp(n int, qubits ...int) Pauli {
	return Pauli{X: f2.NewVec(n), Z: f2.FromSupport(n, qubits...)}
}

// YOp returns the operator with Pauli Y on the given qubits.
func YOp(n int, qubits ...int) Pauli {
	return Pauli{X: f2.FromSupport(n, qubits...), Z: f2.FromSupport(n, qubits...)}
}

// Parse reads operators like "X1 X2 Z5" or "X1X2Z5" with 1-based qubit
// indices, or a string of IXZY letters ("IXZY" positional form) when it
// contains no digits.
func Parse(n int, s string) (Pauli, error) {
	p := New(n)
	s = strings.TrimSpace(s)
	if s == "" || s == "I" {
		return p, nil
	}
	if !strings.ContainsAny(s, "0123456789") {
		// Positional form.
		clean := strings.ReplaceAll(s, " ", "")
		if len(clean) != n {
			return Pauli{}, fmt.Errorf("pauli: positional string %q has length %d, want %d", s, len(clean), n)
		}
		for i, r := range clean {
			switch r {
			case 'I', '_', '.':
			case 'X':
				p.X.Set(i, true)
			case 'Z':
				p.Z.Set(i, true)
			case 'Y':
				p.X.Set(i, true)
				p.Z.Set(i, true)
			default:
				return Pauli{}, fmt.Errorf("pauli: invalid letter %q", r)
			}
		}
		return p, nil
	}
	// Indexed form.
	i := 0
	for i < len(s) {
		c := s[i]
		if c == ' ' {
			i++
			continue
		}
		if c != 'X' && c != 'Z' && c != 'Y' {
			return Pauli{}, fmt.Errorf("pauli: expected X/Y/Z at %q", s[i:])
		}
		i++
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == i {
			return Pauli{}, fmt.Errorf("pauli: missing qubit index at %q", s[i:])
		}
		var q int
		fmt.Sscanf(s[i:j], "%d", &q)
		if q < 1 || q > n {
			return Pauli{}, fmt.Errorf("pauli: qubit %d out of range 1..%d", q, n)
		}
		switch c {
		case 'X':
			p.X.Flip(q - 1)
		case 'Z':
			p.Z.Flip(q - 1)
		case 'Y':
			p.X.Flip(q - 1)
			p.Z.Flip(q - 1)
		}
		i = j
	}
	return p, nil
}

// MustParse is Parse but panics on error; for code tables and tests.
func MustParse(n int, s string) Pauli {
	p, err := Parse(n, s)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the number of qubits.
func (p Pauli) N() int { return p.X.Len() }

// IsIdentity reports whether p is the identity.
func (p Pauli) IsIdentity() bool { return p.X.IsZero() && p.Z.IsZero() }

// Mul returns the product p·q up to phase.
func (p Pauli) Mul(q Pauli) Pauli {
	return Pauli{X: p.X.Xor(q.X), Z: p.Z.Xor(q.Z)}
}

// Clone returns an independent copy.
func (p Pauli) Clone() Pauli {
	return Pauli{X: p.X.Clone(), Z: p.Z.Clone()}
}

// Equal reports coordinate-wise equality.
func (p Pauli) Equal(q Pauli) bool { return p.X.Equal(q.X) && p.Z.Equal(q.Z) }

// String renders the operator in indexed form, e.g. "X1X2Z5" or "Y3",
// with "I" for the identity.
func (p Pauli) String() string {
	if p.IsIdentity() {
		return "I"
	}
	var sb strings.Builder
	for i := 0; i < p.N(); i++ {
		x, z := p.X.Get(i), p.Z.Get(i)
		switch {
		case x && z:
			fmt.Fprintf(&sb, "Y%d", i+1)
		case x:
			fmt.Fprintf(&sb, "X%d", i+1)
		case z:
			fmt.Fprintf(&sb, "Z%d", i+1)
		}
	}
	return sb.String()
}
