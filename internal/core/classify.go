package core

import (
	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/f2"
)

// laySig is one layer's raw signature of a fault.
type laySig struct {
	b []bool // verification outcome flips, one per measurement
	f []bool // flag outcome flips, one per measurement (false if unflagged)
}

func (s laySig) zero() bool {
	for _, x := range s.b {
		if x {
			return false
		}
	}
	return !s.fAny()
}

func (s laySig) fAny() bool {
	for _, x := range s.f {
		if x {
			return true
		}
	}
	return false
}

func (s laySig) signature() Signature {
	bb := make([]byte, len(s.b))
	for i, x := range s.b {
		if x {
			bb[i] = '1'
		} else {
			bb[i] = '0'
		}
	}
	ff := make([]byte, len(s.f))
	for i, x := range s.f {
		if x {
			ff[i] = '1'
		} else {
			ff[i] = '0'
		}
	}
	return Signature{B: string(bb), F: string(ff)}
}

// classifiedFault is one elementary fault reduced to its protocol-visible
// consequence: canonical coset representatives of both data-error sectors
// and the per-layer signatures.
type classifiedFault struct {
	ex  f2.Vec
	ez  f2.Vec
	sig []laySig
}

func (f classifiedFault) silent() bool {
	for _, s := range f.sig {
		if !s.zero() {
			return false
		}
	}
	return true
}

type classification struct {
	faults []classifiedFault
}

// AppendMeasurement emits the gate sequence of one ancilla-mediated
// stabilizer measurement onto c, using wire anc for the syndrome ancilla and
// wire flag for the flag qubit (ignored unless m.Flagged). It returns the
// classical bit of the syndrome outcome and of the flag outcome (-1 when
// unflagged).
//
// Z-type measurements use data→ancilla CNOTs with a |0> ancilla measured in
// Z; X-type measurements use ancilla→data CNOTs with a |+> ancilla measured
// in X. Flag qubits couple to the ancilla after the first and before the
// last data CNOT, in the standard flag scheme of Chamberland-Beverland.
//
// This is the one layout of the gadget that synthesis's fault
// classification (Flatten), QASM export and the batch sampler (sim.Compile
// compiles every verification layer and correction block from it) share;
// the interpreted executor sim.Run keeps its own gadget as the independent
// reference the sampler is cross-checked against.
func AppendMeasurement(c *circuit.Circuit, m Measurement, anc, flag int) (outBit, flagBit int) {
	order := m.Order
	if len(order) == 0 {
		order = m.Stab.Support()
	}
	w := len(order)
	flagBit = -1
	zType := m.Kind == code.ErrZ

	if zType {
		c.AppendPrepZ(anc)
	} else {
		c.AppendPrepX(anc)
	}
	dataCNOT := func(q int) {
		if zType {
			c.AppendCNOT(q, anc)
		} else {
			c.AppendCNOT(anc, q)
		}
	}
	flagCNOT := func() {
		if zType {
			// Flag is |+>, measured in X; catches Z faults on the ancilla.
			c.AppendCNOT(flag, anc)
		} else {
			// Flag is |0>, measured in Z; catches X faults on the ancilla.
			c.AppendCNOT(anc, flag)
		}
	}

	useFlag := m.Flagged && w >= 3
	dataCNOT(order[0])
	if useFlag {
		if zType {
			c.AppendPrepX(flag)
		} else {
			c.AppendPrepZ(flag)
		}
		flagCNOT()
	}
	for j := 1; j < w-1; j++ {
		dataCNOT(order[j])
	}
	if useFlag {
		flagCNOT()
		if zType {
			flagBit = c.AppendMeasX(flag)
		} else {
			flagBit = c.AppendMeasZ(flag)
		}
	}
	if w > 1 {
		dataCNOT(order[w-1])
	}
	if zType {
		outBit = c.AppendMeasZ(anc)
	} else {
		outBit = c.AppendMeasX(anc)
	}
	return outBit, flagBit
}

// FlatLayout is the combined static circuit of a protocol: the preparation
// plus all verification measurements, with the classical-bit indices of
// each layer's syndrome and flag outcomes.
type FlatLayout struct {
	Circ     *circuit.Circuit
	MeasBits [][]int // per layer, per measurement
	FlagBits [][]int // per layer, per measurement; -1 when unflagged
}

// Flatten returns the static part of the protocol as one circuit: the
// preparation and all layer measurement circuits on a common wire set, data
// wires 0..n-1 followed by one ancilla (and possibly one flag) wire per
// measurement. Conditional correction branches are not included — they
// depend on the measured signature.
func (p *Protocol) Flatten() FlatLayout {
	n := p.Code.N
	wires := n
	for _, layer := range p.Layers {
		for _, m := range layer.Verif {
			wires++
			if m.Flagged {
				wires++
			}
		}
	}
	c := circuit.New(wires)
	for _, g := range p.Prep.Gates {
		c.Gates = append(c.Gates, g)
	}
	c.NumBits = p.Prep.NumBits

	lo := FlatLayout{Circ: c}
	next := n
	for _, layer := range p.Layers {
		var mb, fb []int
		for _, m := range layer.Verif {
			anc := next
			next++
			flag := -1
			if m.Flagged {
				flag = next
				next++
			}
			out, fbit := AppendMeasurement(c, m, anc, flag)
			mb = append(mb, out)
			fb = append(fb, fbit)
		}
		lo.MeasBits = append(lo.MeasBits, mb)
		lo.FlagBits = append(lo.FlagBits, fb)
	}
	return lo
}

// FlatCircuit returns Flatten().Circ; useful for export and inspection.
func (p *Protocol) FlatCircuit() *circuit.Circuit {
	return p.Flatten().Circ
}

// classify enumerates every single fault of p's combined circuit and reduces
// it to data-sector coset representatives plus per-layer signatures.
func classify(p *Protocol) *classification {
	cs := p.Code
	lo := p.Flatten()
	out := &classification{}
	for _, ft := range lo.Circ.SingleFaults() {
		cf := classifiedFault{
			ex: cs.CosetRep(code.ErrX, restrict(ft.Effect.Err.X, cs.N)),
			ez: cs.CosetRep(code.ErrZ, restrict(ft.Effect.Err.Z, cs.N)),
		}
		for li := range p.Layers {
			sig := laySig{
				b: make([]bool, len(lo.MeasBits[li])),
				f: make([]bool, len(lo.MeasBits[li])),
			}
			for mi, bit := range lo.MeasBits[li] {
				sig.b[mi] = ft.Effect.Flips.Get(bit)
				if fbit := lo.FlagBits[li][mi]; fbit >= 0 {
					sig.f[mi] = ft.Effect.Flips.Get(fbit)
				}
			}
			cf.sig = append(cf.sig, sig)
		}
		out.faults = append(out.faults, cf)
	}
	return out
}

// restrict truncates a wire-indexed vector to the first n coordinates.
func restrict(v f2.Vec, n int) f2.Vec {
	out := f2.NewVec(n)
	for _, i := range v.Support() {
		if i < n {
			out.Set(i, true)
		}
	}
	return out
}
