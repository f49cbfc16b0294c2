package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/decoder"
)

// op kinds of the compiled circuits, one fault location each.
const (
	opPrep  uint8 = iota // PrepZ/PrepX: erase the frame, then a 1Q location
	opH                  // Hadamard: swap the frame sectors
	opCNOT               // q1 controls q2
	opMeasZ              // outcome slot q2 = Z readout of q1 (its X frame)
	opMeasX              // outcome slot q2 = X readout of q1 (its Z frame)
)

// gateOp is one compiled circuit gate on the lane-major frame: wires 0..n-1
// are the data qubits, n the ancilla and n+1 the flag of every measurement.
type gateOp struct {
	kind   uint8
	q1, q2 int32
}

// progBlock is a compiled correction block: its measurement circuit, whose
// measurement i writes outcome slot i, plus a dense syndrome -> recovery
// table.
type progBlock struct {
	ops []gateOp
	u   int // measurements, the syndrome's bit count
	// corrEx: recoveries apply to the X sector (and the measurements are
	// Z-type); otherwise the Z sector with X-type measurements.
	corrEx bool
	rec    [][]uint64 // packed syndrome -> recovery words; nil = identity
}

// progClass is one signature class of a layer: its packed signature (B
// bits low, F bits high) and its compiled correction blocks.
type progClass struct {
	sig           uint64
	primary, hook *progBlock
}

// progLayer is a compiled verification layer: its m measurements' circuit,
// in which measurement i writes its outcome to slot i and its flag to slot
// m+i, so slot k holds bit k of the packed signature, and its classes.
type progLayer struct {
	ops     []gateOp
	m       int
	classes []progClass
}

// maxLayerMeas bounds the verification measurements per layer so that the
// B and F bit fields pack into one uint64 signature.
const maxLayerMeas = 31

// maxBlockStabs bounds a correction block's measurement count so its dense
// recovery table (2^u entries) stays small.
const maxBlockStabs = 20

// maxLogicals bounds the logical-Z rows so a frame's logical parities pack
// into one uint64.
const maxLogicals = 64

// Compile flattens the protocol into the flat tables of its batch engine.
// Compilation happens once per estimator and does everything the
// interpreted executor pays for on every shot:
//
//   - the preparation, every verification layer and every correction block
//     become dense op lists; each measurement's gadget is the one
//     core.AppendMeasurement lays out (CNOT order, flag decision), on one
//     ancilla wire n and one flag wire n+1;
//   - each class's signature is packed into a uint64 (B bits low, F bits
//     high), bit k matching the layer's outcome slot k, so the shot loop
//     never builds a string or hashes one;
//   - correction blocks carry dense recovery tables indexed by the packed
//     block syndrome, with recoveries bit-packed for word-wise XOR;
//   - the final perfect-EC round uses a decoder.Dense table, bit-packed
//     logical-Z rows and the table of each syndrome's correction's
//     logical-Z parities (see Batch.Judge).
//
// It returns an error when the protocol exceeds the engine's packing
// limits (more than 31 verification measurements in a layer, more than 20
// block measurements, a decoder rank above the dense-table bound, more than
// 64 logical qubits) or contains malformed class keys or empty
// measurements; the estimator then refuses to sample the protocol
// (ErrNotCompiled).
func Compile(p *core.Protocol) (*Batch, error) {
	n := p.Code.N
	b := &Batch{n: n, nw: (n + 63) / 64}
	var err error
	if b.prep, err = compileOps(p.Prep.Gates, nil); err != nil {
		return nil, err
	}

	for _, layer := range p.Layers {
		m := len(layer.Verif)
		if m > maxLayerMeas {
			return nil, fmt.Errorf("sim: layer has %d measurements, packing limit is %d", m, maxLayerMeas)
		}
		pl := progLayer{m: m}
		if pl.ops, err = gadgetOps(n, layer.Verif); err != nil {
			return nil, err
		}
		// Sorted keys give a deterministic class order (behaviour does not
		// depend on it: no two classes match one lane).
		keys := make([]string, 0, len(layer.Classes))
		for k := range layer.Classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			cc := layer.Classes[key]
			pc := progClass{}
			if pc.sig, err = packSigKey(key, m); err != nil {
				return nil, err
			}
			if cc.Primary != nil {
				if pc.primary, err = compileBlock(cc.Primary, layer.Detects, n, b.nw); err != nil {
					return nil, err
				}
			}
			if cc.Hook != nil {
				if pc.hook, err = compileBlock(cc.Hook, layer.Detects.Opposite(), n, b.nw); err != nil {
					return nil, err
				}
			}
			pl.classes = append(pl.classes, pc)
		}
		b.layers = append(b.layers, pl)
		b.slots = max(b.slots, 2*m)
	}

	if err := b.compileJudge(p.Code); err != nil {
		return nil, err
	}
	return b, nil
}

// compileJudge builds the final perfect-EC round of code c: the dense
// decoder, the packed logical-Z rows and λ of every syndrome index, and
// the qubits of every decoder check row and logical-Z row, so Judge
// computes all 64 lanes' syndromes and logical parities with word-wide
// XORs.
func (b *Batch) compileJudge(c *code.CSS) error {
	dec, err := decoder.NewDense(c.Hz)
	if err != nil {
		return err
	}
	if k := c.Lz.Rows(); k > maxLogicals {
		return fmt.Errorf("sim: %d logical qubits exceed the compiled limit %d", k, maxLogicals)
	}
	b.dec = dec
	for i := 0; i < c.Lz.Rows(); i++ {
		row := make([]uint64, b.nw)
		copy(row, c.Lz.Row(i).Words())
		b.lz = append(b.lz, row)
		b.lzQubits = append(b.lzQubits, qubitList(row))
	}
	for i := 0; i < dec.Rank(); i++ {
		b.checkQubits = append(b.checkQubits, qubitList(dec.CheckRow(i)))
	}
	b.lambda = make([]uint64, dec.Size())
	for idx := range b.lambda {
		b.lambda[idx] = b.logicals(dec.CorrectionWords(uint64(idx)))
	}
	return nil
}

// gadgetOps lays the measurements out with core.AppendMeasurement on
// ancilla wire n and flag wire n+1 and compiles them: measurement i writes
// its outcome to slot i and its flag, where one is compiled in, to slot
// len(ms)+i.
func gadgetOps(n int, ms []core.Measurement) ([]gateOp, error) {
	c := circuit.New(n + 2)
	slot := make([]int32, 2*len(ms)) // classical bit -> outcome slot
	for i, m := range ms {
		if len(m.Order) == 0 && m.Stab.IsZero() {
			return nil, fmt.Errorf("sim: measurement %d has an empty support", i)
		}
		out, flag := core.AppendMeasurement(c, m, n, n+1)
		slot[out] = int32(i)
		if flag >= 0 {
			slot[flag] = int32(len(ms) + i)
		}
	}
	return compileOps(c.Gates, slot[:c.NumBits])
}

// compileOps lowers gates to ops; slot maps a measurement's classical bit
// to the outcome slot it writes (nil admits no measurement).
func compileOps(gates []circuit.Gate, slot []int32) ([]gateOp, error) {
	ops := make([]gateOp, len(gates))
	for i, g := range gates {
		op := gateOp{q1: int32(g.Q), q2: int32(g.Q2)}
		switch g.Kind {
		case circuit.PrepZ, circuit.PrepX:
			op.kind = opPrep
		case circuit.H:
			op.kind = opH
		case circuit.CNOT:
			op.kind = opCNOT
		case circuit.MeasZ, circuit.MeasX:
			if g.Bit < 0 || g.Bit >= len(slot) {
				return nil, fmt.Errorf("sim: unexpected gate %v in preparation circuit", g.Kind)
			}
			op.kind, op.q2 = opMeasZ, slot[g.Bit]
			if g.Kind == circuit.MeasX {
				op.kind = opMeasX
			}
		default: // gadgets lay out no other gate
			return nil, fmt.Errorf("sim: unexpected gate %v in preparation circuit", g.Kind)
		}
		ops[i] = op
	}
	return ops, nil
}

// compileBlock compiles a correction block for the sector kind it corrects:
// the measured stabilizers are of the opposite operator type, and the dense
// recovery table maps every packed syndrome to bit-packed recovery words
// (nil for the identity recovery).
func compileBlock(blk *correct.Block, kind code.ErrType, n, nw int) (*progBlock, error) {
	u := len(blk.Stabs)
	if u > maxBlockStabs {
		return nil, fmt.Errorf("sim: correction block has %d measurements, packing limit is %d", u, maxBlockStabs)
	}
	ms := make([]core.Measurement, u)
	for i, s := range blk.Stabs {
		ms[i] = core.Measurement{Stab: s, Kind: kind.Opposite()}
	}
	ops, err := gadgetOps(n, ms)
	if err != nil {
		return nil, err
	}
	pb := &progBlock{ops: ops, u: u, corrEx: kind == code.ErrX, rec: make([][]uint64, 1<<uint(u))}
	for key, rec := range blk.Recovery {
		if len(key) != u {
			return nil, fmt.Errorf("sim: recovery key %q does not match %d block measurements", key, u)
		}
		var idx uint64
		for i := 0; i < u; i++ {
			if key[i] == '1' {
				idx |= 1 << uint(i)
			}
		}
		if rec.IsZero() {
			continue
		}
		w := make([]uint64, nw)
		copy(w, rec.Words())
		pb.rec[idx] = w
	}
	return pb, nil
}

// packSigKey parses a core.Signature map key ("B|F" with m bits each) into
// the packed form bBits | fBits<<m.
func packSigKey(key string, m int) (uint64, error) {
	if len(key) != 2*m+1 || key[m] != '|' {
		return 0, fmt.Errorf("sim: malformed signature key %q for %d measurements", key, m)
	}
	var b, f uint64
	for i := 0; i < m; i++ {
		if key[i] == '1' {
			b |= 1 << uint(i)
		}
		if key[m+1+i] == '1' {
			f |= 1 << uint(i)
		}
	}
	return b | f<<uint(m), nil
}

// reach returns a static upper bound on the fault locations one shot
// executes, whatever its faults: every op is one location, so it counts the
// preparation's ops, then in every layer its verification ops and the
// costliest class's primary and hook blocks together. A shot that stops
// early or runs no correction executes fewer.
func (b *Batch) reach() int {
	n := len(b.prep)
	for li := range b.layers {
		lay := &b.layers[li]
		worst := 0
		for _, cc := range lay.classes {
			w := 0
			for _, blk := range []*progBlock{cc.primary, cc.hook} {
				if blk != nil {
					w += len(blk.ops)
				}
			}
			worst = max(worst, w)
		}
		n += len(lay.ops) + worst
	}
	return n
}

// logicals packs the logical-Z parities of the bit-packed X frame e: bit j
// is the GF(2) inner product of row j of Lz with e.
func (b *Batch) logicals(e []uint64) uint64 {
	var l uint64
	for j, row := range b.lz {
		var acc uint64
		for i, w := range row {
			acc ^= w & e[i]
		}
		l |= uint64(bits.OnesCount64(acc)&1) << uint(j)
	}
	return l
}

// qubitList returns the positions of the set bits of a bit-packed row.
func qubitList(row []uint64) []int32 {
	var qs []int32
	for j, w := range row {
		for ; w != 0; w &= w - 1 {
			qs = append(qs, int32(j*64+bits.TrailingZeros64(w)))
		}
	}
	return qs
}
