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

// gate op kinds of the compiled preparation circuit.
const (
	opPrep uint8 = iota // PrepZ/PrepX: erase the frame, then a 1Q location
	opH                 // Hadamard: swap the frame sectors
	opCNOT
)

type gateOp struct {
	kind   uint8
	q1, q2 int32
}

// progMeas is one pre-resolved ancilla-mediated stabilizer measurement.
type progMeas struct {
	order   []int32
	zType   bool // measures a Z-type stabilizer (detects X errors)
	useFlag bool // flag circuit compiled in (Flagged && weight >= 3)
}

// progBlock is a compiled correction block: measurements plus a dense
// syndrome -> recovery table.
type progBlock struct {
	meas []progMeas
	// corrEx: recoveries apply to the X sector (and the measurements are
	// Z-type); otherwise the Z sector with X-type measurements.
	corrEx bool
	rec    [][]uint64 // packed syndrome -> recovery words; nil = identity
}

type progClass struct {
	primary, hook *progBlock
}

type progLayer struct {
	meas      []progMeas
	classes   map[uint64]int32 // packed signature -> class index
	classList []progClass
}

// maxLayerMeas bounds the verification measurements per layer so that the
// B and F bit fields pack into one uint64 signature key.
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
//   - preparation gates are pre-indexed into a dense op list;
//   - every measurement's CNOT order is resolved (m.Order or the stabilizer
//     support) and its flag decision (Flagged && weight >= 3) is frozen;
//   - verification signatures are interned: the per-layer signature is
//     packed into a uint64 (B bits low, F bits high) and mapped to a dense
//     class index, so the shot loop never builds a string or hashes one;
//   - correction blocks carry dense recovery tables indexed by the packed
//     block syndrome, with recoveries bit-packed for word-wise XOR;
//   - the final perfect-EC round uses a decoder.Dense table, bit-packed
//     logical-Z rows and the table of each syndrome's correction's
//     logical-Z parities (see Batch.Judge).
//
// It returns an error when the protocol exceeds the engine's packing
// limits (more than 31 verification measurements in a layer, more than 20
// block measurements, a decoder rank above the dense-table bound, more than
// 64 logical qubits) or contains malformed class keys; the estimator then
// refuses to sample the protocol (ErrNotCompiled).
func Compile(p *core.Protocol) (*Batch, error) {
	n := p.Code.N
	b := &Batch{n: n, nw: (n + 63) / 64}

	for _, g := range p.Prep.Gates {
		switch g.Kind {
		case circuit.PrepZ, circuit.PrepX:
			b.prep = append(b.prep, gateOp{kind: opPrep, q1: int32(g.Q)})
		case circuit.H:
			b.prep = append(b.prep, gateOp{kind: opH, q1: int32(g.Q)})
		case circuit.CNOT:
			b.prep = append(b.prep, gateOp{kind: opCNOT, q1: int32(g.Q), q2: int32(g.Q2)})
		default:
			return nil, fmt.Errorf("sim: unexpected gate %v in preparation circuit", g.Kind)
		}
	}

	for _, layer := range p.Layers {
		if len(layer.Verif) > maxLayerMeas {
			return nil, fmt.Errorf("sim: layer has %d measurements, packing limit is %d", len(layer.Verif), maxLayerMeas)
		}
		pl := progLayer{classes: make(map[uint64]int32, len(layer.Classes))}
		for mi := range layer.Verif {
			pl.meas = append(pl.meas, compileMeas(&layer.Verif[mi]))
		}
		// Sorted keys give deterministic class indices (behaviour does not
		// depend on them; debuggability does).
		keys := make([]string, 0, len(layer.Classes))
		for k := range layer.Classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			cc := layer.Classes[key]
			packed, err := packSigKey(key, len(layer.Verif))
			if err != nil {
				return nil, err
			}
			var pc progClass
			if cc.Primary != nil {
				blk, err := compileBlock(cc.Primary, layer.Detects, n, b.nw)
				if err != nil {
					return nil, err
				}
				pc.primary = blk
			}
			if cc.Hook != nil {
				blk, err := compileBlock(cc.Hook, layer.Detects.Opposite(), n, b.nw)
				if err != nil {
					return nil, err
				}
				pc.hook = blk
			}
			pl.classes[packed] = int32(len(pl.classList))
			pl.classList = append(pl.classList, pc)
		}
		b.layers = append(b.layers, pl)
		b.maxMeas = max(b.maxMeas, len(pl.meas))
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

// compileMeas freezes one verification measurement: explicit CNOT order or
// the stabilizer support, and the executor's flag decision.
func compileMeas(m *core.Measurement) progMeas {
	order := m.Order
	if len(order) == 0 {
		order = m.Stab.Support()
	}
	pm := progMeas{
		order:   make([]int32, len(order)),
		zType:   m.Kind == code.ErrZ,
		useFlag: m.Flagged && len(order) >= 3,
	}
	for i, q := range order {
		pm.order[i] = int32(q)
	}
	return pm
}

// compileBlock freezes a correction block for the sector kind it corrects:
// the measured stabilizers are of the opposite operator type, and the dense
// recovery table maps every packed syndrome to bit-packed recovery words
// (nil for the identity recovery).
func compileBlock(blk *correct.Block, kind code.ErrType, n, nw int) (*progBlock, error) {
	u := len(blk.Stabs)
	if u > maxBlockStabs {
		return nil, fmt.Errorf("sim: correction block has %d measurements, packing limit is %d", u, maxBlockStabs)
	}
	pb := &progBlock{corrEx: kind == code.ErrX, rec: make([][]uint64, 1<<uint(u))}
	for _, s := range blk.Stabs {
		m := core.Measurement{Stab: s, Kind: kind.Opposite()}
		pb.meas = append(pb.meas, compileMeas(&m))
	}
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
// executes, whatever its faults: the preparation, then in every layer its
// verification measurements and the costliest class's primary and hook
// blocks together. A shot that stops early or runs no correction executes
// fewer.
func (b *Batch) reach() int {
	n := len(b.prep)
	for li := range b.layers {
		lay := &b.layers[li]
		n += measLocs(lay.meas)
		worst := 0
		for _, cc := range lay.classList {
			w := 0
			for _, blk := range []*progBlock{cc.primary, cc.hook} {
				if blk != nil {
					w += measLocs(blk.meas)
				}
			}
			worst = max(worst, w)
		}
		n += worst
	}
	return n
}

// measLocs counts the fault locations of a measurement sequence: each
// measurement's ancilla preparation, one CNOT per qubit of its order and
// its readout, plus a flag's preparation, two CNOTs and readout where one
// is compiled in (see Batch.measure).
func measLocs(ms []progMeas) int {
	n := 0
	for i := range ms {
		n += len(ms[i].order) + 2
		if ms[i].useFlag {
			n += 4
		}
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
