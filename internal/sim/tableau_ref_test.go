package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/noise"
	"repro/internal/pauli"
	"repro/internal/tableau"
)

// RunTableau executes the protocol once on the exact Aaronson-Gottesman
// stabilizer simulator instead of the Pauli frame. It allocates one wire
// per data qubit plus one ancilla and one flag wire (reused across
// measurements), injects faults from the same location sequence as Run, and
// reconstructs the residual frame by measuring the code's stabilizers and
// logicals destructively against the ideal state.
//
// This is ~n times slower than the frame executor. It is the exact
// reference engine of the cross-validation tests: both must produce
// identical outcomes for identical fault plans.
func RunTableau(p *core.Protocol, inj noise.Injector) Outcome {
	n := p.Code.N
	anc, flag := n, n+1
	e := &tbExec{
		p:   p,
		inj: inj,
		tb:  tableau.New(n + 2),
		anc: anc, flg: flag,
	}
	e.run()
	e.out.Ex, e.out.Ez = e.extractFrame()
	return e.out
}

type tbExec struct {
	p        *core.Protocol
	inj      noise.Injector
	tb       *tableau.Tableau
	anc, flg int
	out      Outcome
}

// fault applies a Pauli fault code to a wire.
func (e *tbExec) fault(q int, c byte) {
	switch c {
	case noise.PX:
		e.tb.X(q)
	case noise.PZ:
		e.tb.Z(q)
	case noise.PY: // X then Z: Y up to a global phase
		e.tb.X(q)
		e.tb.Z(q)
	}
}

func (e *tbExec) loc1(q int) {
	f := e.inj.Next(noise.Loc1Q)
	e.fault(q, f.P1)
}

func (e *tbExec) loc2(q1, q2 int) {
	f := e.inj.Next(noise.Loc2Q)
	e.fault(q1, f.P1)
	e.fault(q2, f.P2)
}

func (e *tbExec) locMeas() bool {
	return e.inj.Next(noise.LocMeas).Flip
}

func (e *tbExec) run() {
	// Preparation circuit.
	for _, g := range e.p.Prep.Gates {
		switch g.Kind {
		case circuit.PrepZ:
			e.tb.ResetZ(g.Q, nil)
			e.loc1(g.Q)
		case circuit.PrepX:
			e.tb.ResetZ(g.Q, nil)
			e.tb.H(g.Q)
			e.loc1(g.Q)
		case circuit.H:
			e.tb.H(g.Q)
			e.loc1(g.Q)
		case circuit.CNOT:
			e.tb.CNOT(g.Q, g.Q2)
			e.loc2(g.Q, g.Q2)
		default:
			panic(fmt.Sprintf("sim: unexpected prep gate %v", g.Kind))
		}
	}

	for _, layer := range e.p.Layers {
		b := make([]byte, len(layer.Verif))
		fl := make([]byte, len(layer.Verif))
		any := false
		for mi := range layer.Verif {
			out, flag := e.measure(&layer.Verif[mi])
			b[mi] = bit(out)
			fl[mi] = bit(flag)
			any = any || out || flag
		}
		sig := core.Signature{B: string(b), F: string(fl)}
		e.out.Sigs = append(e.out.Sigs, sig)
		if !any {
			continue
		}
		e.out.Triggered = true
		cc, ok := layer.Classes[sig.Key()]
		if !ok {
			e.out.UnknownClass = true
			continue
		}
		flagFired := containsOne(sig.F)
		if cc.Primary != nil {
			e.runBlock(cc.Primary, layer.Detects)
		}
		if cc.Hook != nil && flagFired {
			e.runBlock(cc.Hook, layer.Detects.Opposite())
		}
		if flagFired {
			e.out.TerminatedEarly = true
			return
		}
	}
}

func bit(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}

func (e *tbExec) runBlock(blk *correct.Block, kind code.ErrType) {
	key := make([]byte, len(blk.Stabs))
	for i, s := range blk.Stabs {
		m := core.Measurement{Stab: s, Kind: kind.Opposite()}
		out, _ := e.measure(&m)
		key[i] = bit(out)
	}
	rec := blk.RecoveryFor(string(key), e.p.Code.N)
	for _, q := range rec.Support() {
		if kind == code.ErrX {
			e.tb.X(q)
		} else {
			e.tb.Z(q)
		}
	}
}

// measure performs one ancilla-mediated stabilizer measurement with fault
// injection, on the tableau.
func (e *tbExec) measure(m *core.Measurement) (out, flag bool) {
	order := m.Order
	if len(order) == 0 {
		order = m.Stab.Support()
	}
	w := len(order)
	zType := m.Kind == code.ErrZ

	// Ancilla preparation.
	e.tb.ResetZ(e.anc, nil)
	if !zType {
		e.tb.H(e.anc)
	}
	e.loc1(e.anc)

	dataCNOT := func(q int) {
		if zType {
			e.tb.CNOT(q, e.anc)
			e.loc2(q, e.anc)
		} else {
			e.tb.CNOT(e.anc, q)
			e.loc2(e.anc, q)
		}
	}
	flagCNOT := func() {
		if zType {
			e.tb.CNOT(e.flg, e.anc)
			e.loc2(e.flg, e.anc)
		} else {
			e.tb.CNOT(e.anc, e.flg)
			e.loc2(e.anc, e.flg)
		}
	}

	useFlag := m.Flagged && w >= 3
	dataCNOT(order[0])
	if useFlag {
		e.tb.ResetZ(e.flg, nil)
		if zType {
			e.tb.H(e.flg) // |+> flag for Z-type measurements
		}
		e.loc1(e.flg)
		flagCNOT()
	}
	for j := 1; j < w-1; j++ {
		dataCNOT(order[j])
	}
	if useFlag {
		flagCNOT()
		var fo bool
		if zType {
			fo, _ = e.tb.MeasureX(e.flg, nil)
		} else {
			fo, _ = e.tb.MeasureZ(e.flg, nil)
		}
		flag = fo != e.locMeas()
	}
	if w > 1 {
		dataCNOT(order[w-1])
	}
	var o bool
	if zType {
		o, _ = e.tb.MeasureZ(e.anc, nil)
	} else {
		o, _ = e.tb.MeasureX(e.anc, nil)
	}
	out = o != e.locMeas()
	return out, flag
}

// extractFrame reconstructs the residual Pauli frame from the final tableau
// state: the X component from the code's Z-type state stabilizers (their
// expectation flips record X errors), and symmetrically for Z.
func (e *tbExec) extractFrame() (ex, ez f2.Vec) {
	cs := e.p.Code

	// Syndromes: expectation of each state stabilizer on the data wires.
	zGroup := cs.DetectionGroup(code.ErrX) // Z-type stabilizers incl. logicals
	xGroup := cs.DetectionGroup(code.ErrZ) // X-type stabilizers
	sx := f2.NewVec(zGroup.Rows())
	for i := 0; i < zGroup.Rows(); i++ {
		if e.expectData(zGroup.Row(i), true) < 0 {
			sx.Set(i, true)
		}
	}
	sz := f2.NewVec(xGroup.Rows())
	for i := 0; i < xGroup.Rows(); i++ {
		if e.expectData(xGroup.Row(i), false) < 0 {
			sz.Set(i, true)
		}
	}
	// Solve for frames consistent with the observed violations: an X frame
	// ex flips Z-stabilizer i iff <ex, z_i> = 1.
	ex, okX := zGroup.Solve(sx)
	ez, okZ := xGroup.Solve(sz)
	if !okX || !okZ {
		panic("sim: inconsistent stabilizer violations (non-Pauli state?)")
	}
	return ex, ez
}

// expectData evaluates the expectation of a Z-type (zBasis) or X-type Pauli
// supported on the data wires, extended by identity on ancilla wires.
func (e *tbExec) expectData(support f2.Vec, zBasis bool) int {
	op := pauli.New(e.p.Code.N + 2)
	for _, q := range support.Support() {
		if zBasis {
			op.Z.Set(q, true)
		} else {
			op.X.Set(q, true)
		}
	}
	return e.tb.Expectation(op)
}
