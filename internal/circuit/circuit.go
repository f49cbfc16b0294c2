// Package circuit provides the gate-level intermediate representation used
// by the synthesis pipeline: unitary preparation circuits over
// {PrepZ, PrepX, H, CNOT}, exact symbolic Pauli propagation, and exhaustive
// enumeration of the error set produced by single circuit faults (the sets
// E_X(C), E_Z(C) of the paper).
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/f2"
	"repro/internal/pauli"
	"repro/internal/tableau"
)

// Kind enumerates gate kinds.
type Kind int

// Gate kinds.
const (
	PrepZ Kind = iota // reset to |0>
	PrepX             // reset to |+>
	H                 // Hadamard
	CNOT              // controlled-NOT (Q control, Q2 target)
	MeasZ             // destructive Z measurement into classical bit Bit
	MeasX             // destructive X measurement into classical bit Bit
)

func (k Kind) String() string {
	switch k {
	case PrepZ:
		return "prep_z"
	case PrepX:
		return "prep_x"
	case H:
		return "h"
	case CNOT:
		return "cnot"
	case MeasZ:
		return "meas_z"
	case MeasX:
		return "meas_x"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Gate is a single operation. For CNOT, Q is the control and Q2 the target;
// measurements write into classical bit Bit; other kinds use only Q.
type Gate struct {
	Kind Kind
	Q    int
	Q2   int
	Bit  int
}

// String renders the gate, e.g. "cnot 0 4".
func (g Gate) String() string {
	switch g.Kind {
	case CNOT:
		return fmt.Sprintf("cnot %d %d", g.Q, g.Q2)
	case MeasZ, MeasX:
		return fmt.Sprintf("%s %d -> b%d", g.Kind, g.Q, g.Bit)
	}
	return fmt.Sprintf("%s %d", g.Kind, g.Q)
}

// Circuit is a sequence of gates on N qubits with NumBits classical bits.
type Circuit struct {
	N       int
	NumBits int
	Gates   []Gate
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit { return &Circuit{N: n} }

// AppendPrepZ appends a |0> preparation.
func (c *Circuit) AppendPrepZ(q int) { c.append(Gate{Kind: PrepZ, Q: q}) }

// AppendPrepX appends a |+> preparation.
func (c *Circuit) AppendPrepX(q int) { c.append(Gate{Kind: PrepX, Q: q}) }

// AppendH appends a Hadamard.
func (c *Circuit) AppendH(q int) { c.append(Gate{Kind: H, Q: q}) }

// AppendCNOT appends a CNOT.
func (c *Circuit) AppendCNOT(ctrl, tgt int) {
	if ctrl == tgt {
		panic("circuit: CNOT control equals target")
	}
	c.checkQubit(tgt)
	c.append(Gate{Kind: CNOT, Q: ctrl, Q2: tgt})
}

// AppendMeasZ appends a Z-basis measurement of q into a fresh classical bit
// and returns the bit index.
func (c *Circuit) AppendMeasZ(q int) int {
	bit := c.NumBits
	c.NumBits++
	c.append(Gate{Kind: MeasZ, Q: q, Bit: bit})
	return bit
}

// AppendMeasX appends an X-basis measurement of q into a fresh classical bit
// and returns the bit index.
func (c *Circuit) AppendMeasX(q int) int {
	bit := c.NumBits
	c.NumBits++
	c.append(Gate{Kind: MeasX, Q: q, Bit: bit})
	return bit
}

func (c *Circuit) append(g Gate) {
	c.checkQubit(g.Q)
	c.Gates = append(c.Gates, g)
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.N {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.N))
	}
}

// CNOTCount returns the number of CNOT gates.
func (c *Circuit) CNOTCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == CNOT {
			n++
		}
	}
	return n
}

// String renders one gate per line.
func (c *Circuit) String() string {
	var sb strings.Builder
	for i, g := range c.Gates {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(g.String())
	}
	return sb.String()
}

// Run executes the circuit on a tableau (which must have at least N qubits)
// and returns the measurement outcomes indexed by classical bit.
// Preparations are implemented as measurement-based resets; random
// measurement branches are resolved by rnd (may be nil: always 0).
func (c *Circuit) Run(t *tableau.Tableau, rnd func() bool) []bool {
	bits := make([]bool, c.NumBits)
	for _, g := range c.Gates {
		switch g.Kind {
		case PrepZ:
			t.ResetZ(g.Q, rnd)
		case PrepX:
			t.ResetZ(g.Q, rnd)
			t.H(g.Q)
		case H:
			t.H(g.Q)
		case CNOT:
			t.CNOT(g.Q, g.Q2)
		case MeasZ:
			out, _ := t.MeasureZ(g.Q, rnd)
			bits[g.Bit] = out
		case MeasX:
			out, _ := t.MeasureX(g.Q, rnd)
			bits[g.Bit] = out
		}
	}
	return bits
}

// Effect is the observable consequence of an error at the circuit output:
// the residual Pauli on the wires and the set of flipped measurement bits.
type Effect struct {
	Err   pauli.Pauli
	Flips f2.Vec // length NumBits
}

// PropagateEffect conjugates the Pauli error p, inserted immediately after
// gate index after (use -1 for an input error), through the remaining gates.
// It returns the error present at the circuit output, where preparations
// have erased any error on the prepared qubit, and the classical
// measurement bits the error flips: an X (or Y) component on a qubit flips
// any later Z-basis measurement of that qubit, a Z (or Y) component any
// later X-basis measurement.
func (c *Circuit) PropagateEffect(after int, p pauli.Pauli) Effect {
	e := p.Clone()
	flips := f2.NewVec(c.NumBits)
	for i := after + 1; i < len(c.Gates); i++ {
		g := c.Gates[i]
		switch g.Kind {
		case PrepZ, PrepX:
			e.X.Set(g.Q, false)
			e.Z.Set(g.Q, false)
		case H:
			x, z := e.X.Get(g.Q), e.Z.Get(g.Q)
			e.X.Set(g.Q, z)
			e.Z.Set(g.Q, x)
		case CNOT:
			// X propagates control -> target, Z target -> control.
			if e.X.Get(g.Q) {
				e.X.Flip(g.Q2)
			}
			if e.Z.Get(g.Q2) {
				e.Z.Flip(g.Q)
			}
		case MeasZ:
			if e.X.Get(g.Q) {
				flips.Flip(g.Bit)
			}
			// The wire is consumed; a later Prep revives it.
		case MeasX:
			if e.Z.Get(g.Q) {
				flips.Flip(g.Bit)
			}
		}
	}
	return Effect{Err: e, Flips: flips}
}

// Fault describes one elementary fault: either the Pauli op injected after
// gate After, or (for MeasBit >= 0) a classical measurement error flipping
// that bit. Final/Effect describe the propagated consequence.
type Fault struct {
	After   int
	Op      pauli.Pauli
	MeasBit int // -1 for Pauli faults
	Final   pauli.Pauli
	Effect  Effect
}

// SingleFaults enumerates the consequences of all single faults under
// standard circuit-level depolarizing noise:
//
//   - after every one-qubit gate (and preparation), each of X, Y, Z on the
//     gate's qubit;
//   - after every CNOT, each of the 15 non-identity two-qubit Paulis on the
//     gate's qubit pair;
//   - for every measurement, a classical flip of its outcome bit.
//
// The returned slice contains one entry per (location, operator) pair; the
// caller typically projects onto X or Z components and deduplicates.
func (c *Circuit) SingleFaults() []Fault {
	var out []Fault
	add := func(after int, op pauli.Pauli) {
		eff := c.PropagateEffect(after, op)
		out = append(out, Fault{After: after, Op: op, MeasBit: -1, Final: eff.Err, Effect: eff})
	}
	for i, g := range c.Gates {
		switch g.Kind {
		case PrepZ, PrepX, H:
			for _, mk := range []func(int, ...int) pauli.Pauli{pauli.XOp, pauli.YOp, pauli.ZOp} {
				add(i, mk(c.N, g.Q))
			}
		case CNOT:
			for mask := 1; mask < 16; mask++ {
				p := pauli.New(c.N)
				applyMask(&p, g.Q, mask>>2) // control: bits 2-3
				applyMask(&p, g.Q2, mask&3) // target: bits 0-1
				add(i, p)
			}
		case MeasZ, MeasX:
			flips := f2.NewVec(c.NumBits)
			flips.Set(g.Bit, true)
			out = append(out, Fault{
				After:   i,
				Op:      pauli.New(c.N),
				MeasBit: g.Bit,
				Final:   pauli.New(c.N),
				Effect:  Effect{Err: pauli.New(c.N), Flips: flips},
			})
		}
	}
	return out
}

// applyMask sets qubit q of p according to a 2-bit Pauli code:
// 0=I, 1=X, 2=Z, 3=Y.
func applyMask(p *pauli.Pauli, q, code int) {
	switch code {
	case 1:
		p.X.Set(q, true)
	case 2:
		p.Z.Set(q, true)
	case 3:
		p.X.Set(q, true)
		p.Z.Set(q, true)
	}
}
