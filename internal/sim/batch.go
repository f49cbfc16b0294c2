package sim

import (
	"errors"
	"math/bits"

	"repro/internal/f2"
	"repro/internal/noise"
)

// Batch is the 64-lane bit-parallel Monte-Carlo engine built on top of the
// compiled Program: lane l of every word is an independent shot, so one pass
// over the flattened op list advances 64 shots at once.
//
// Layout: the Pauli frame is lane-major — one uint64 per data qubit, bit l
// holding lane l's frame bit — so preparation gates and the CNOT spreading
// inside stabilizer measurements become single word-wide XORs. Fault
// injection goes through a noise.BatchInjector; with a noise.SparseSampler
// the injector skip-samples the lane×site grid geometrically, so at
// realistic physical rates almost every site costs one comparison and zero
// RNG calls, instead of the 64 per-lane draws the scalar engine would make.
//
// Divergent control flow is handled with lane masks: every measurement runs
// word-wide under the mask of still-active lanes, the (rare) lanes whose
// layer signature is nonzero are extracted with bits.TrailingZeros64 and
// resolved individually through the program's dense class and correction
// tables, and a lane that terminates early (hook flag fired, Fig. 3(e))
// simply leaves the active mask — subsequent sites neither fault nor touch
// it. Correction blocks re-enter the same word-wide measurement routine
// with a single-lane mask, which is exactly a scalar replay on the batch
// state and keeps the per-lane location order identical to the scalar
// engine's (the fixed-fault-mask cross-check pins this).
//
// A Batch is immutable and safe for concurrent use; all mutable state lives
// in a BatchShot. The repeat-until-success baseline (nondet.go) is out of
// scope — restarts resample whole shots, which the scalar engines already
// do cheaply.
type Batch struct {
	prog    *Program
	maxMeas int // widest verification layer, sizes the outcome scratch

	// Judge's word-wide parities: the qubits of each decoder check row
	// (bit i of the syndrome index) and of each logical-Z row.
	checks, logicals [][]int32
}

// NewBatch wraps a compiled program in the 64-lane engine. The only
// requirement is the program itself: every protocol within the Program
// packing limits batches cleanly for any code length. NewBatch lists the
// qubits of every decoder check row and logical-Z row, so Judge computes
// all 64 lanes' syndromes and logical parities with word-wide XORs.
func NewBatch(prog *Program) (*Batch, error) {
	if prog == nil {
		return nil, errors.New("sim: nil program")
	}
	b := &Batch{prog: prog}
	for li := range prog.layers {
		if m := len(prog.layers[li].meas); m > b.maxMeas {
			b.maxMeas = m
		}
	}
	for i := 0; i < prog.dec.Rank(); i++ {
		b.checks = append(b.checks, qubitList(prog.dec.CheckRow(i)))
	}
	for _, row := range prog.lz {
		b.logicals = append(b.logicals, qubitList(row))
	}
	return b, nil
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

// BatchShot is the reusable per-worker scratch of the batch engine: frames,
// outcome words and the Judge parity words are allocated once by NewShot,
// so the steady-state loop performs zero heap allocations per 64-shot word.
//
// The branch flags are lane masks mirroring the scalar Shot's booleans.
// Per-layer signature history is not kept: the batch engine resolves each
// nonzero signature immediately; use the scalar engines when signature
// traces are needed.
type BatchShot struct {
	ex, ez     []uint64 // lane-major frames, one word per data qubit
	bOut, fOut []uint64 // per-measurement outcome/flag words of one layer
	syn, lgc   []uint64 // Judge scratch: syndrome and logical parity words

	// Live is the lane mask the last Run was asked to simulate.
	Live uint64

	// Triggered, UnknownClass and TerminatedEarly are lane masks mirroring
	// the scalar Outcome flags.
	Triggered, UnknownClass, TerminatedEarly uint64
}

// NewShot allocates the reusable scratch for this batch engine. A BatchShot
// must not be shared between concurrent Run calls.
func (b *Batch) NewShot() *BatchShot {
	pr := b.prog
	return &BatchShot{
		ex:   make([]uint64, pr.n),
		ez:   make([]uint64, pr.n),
		bOut: make([]uint64, b.maxMeas),
		fOut: make([]uint64, b.maxMeas),
		syn:  make([]uint64, len(b.checks)),
		lgc:  make([]uint64, len(b.logicals)),
	}
}

// Run executes one 64-shot word of the compiled protocol under the
// injector: lane l of live is one independent shot (clear bits are skipped
// entirely — partial words at the end of a budget pass a partial mask). The
// residual frames and branch-flag masks are left in bs. It performs no heap
// allocations.
func (b *Batch) Run(bs *BatchShot, inj noise.BatchInjector, live uint64) {
	pr := b.prog
	for q := range bs.ex {
		bs.ex[q] = 0
		bs.ez[q] = 0
	}
	bs.Live = live
	bs.Triggered, bs.UnknownClass, bs.TerminatedEarly = 0, 0, 0
	active := live

	// Preparation circuit: straight-line, no divergence possible yet.
	for _, g := range pr.prep {
		switch g.kind {
		case opPrep:
			bs.ex[g.q1] = 0
			bs.ez[g.q1] = 0
			x, z := inj.Draw1Q(active)
			bs.ex[g.q1] ^= x
			bs.ez[g.q1] ^= z
		case opH:
			bs.ex[g.q1], bs.ez[g.q1] = bs.ez[g.q1], bs.ex[g.q1]
			x, z := inj.Draw1Q(active)
			bs.ex[g.q1] ^= x
			bs.ez[g.q1] ^= z
		case opCNOT:
			bs.ex[g.q2] ^= bs.ex[g.q1]
			bs.ez[g.q1] ^= bs.ez[g.q2]
			x1, z1, x2, z2 := inj.Draw2Q(active)
			bs.ex[g.q1] ^= x1
			bs.ez[g.q1] ^= z1
			bs.ex[g.q2] ^= x2
			bs.ez[g.q2] ^= z2
		}
	}

	// Verification layers: word-wide measurements, masked divergence.
	for li := range pr.layers {
		if active == 0 {
			return
		}
		lay := &pr.layers[li]
		m := uint(len(lay.meas))
		trig := uint64(0)
		for mi := range lay.meas {
			out, flag := b.measure(bs, &lay.meas[mi], inj, active)
			bs.bOut[mi] = out
			bs.fOut[mi] = flag
			trig |= out | flag
		}
		if trig == 0 {
			continue
		}
		bs.Triggered |= trig
		// Resolve the rare nonzero-signature lanes one by one through the
		// dense class tables.
		for t := trig; t != 0; t &= t - 1 {
			lane := uint(bits.TrailingZeros64(t))
			var bBits, fBits uint64
			for mi := range lay.meas {
				bBits |= (bs.bOut[mi] >> lane & 1) << uint(mi)
				fBits |= (bs.fOut[mi] >> lane & 1) << uint(mi)
			}
			ci, ok := lay.classes[bBits|fBits<<m]
			if !ok {
				bs.UnknownClass |= 1 << lane
				continue
			}
			cc := &lay.classList[ci]
			flagFired := fBits != 0
			if cc.primary != nil {
				b.runBlock(bs, cc.primary, inj, lane)
			}
			if cc.hook != nil && flagFired {
				b.runBlock(bs, cc.hook, inj, lane)
			}
			if flagFired {
				// Fig. 3(e): hook detected, this lane's protocol terminates
				// after the correction; later sites skip it via the mask.
				bs.TerminatedEarly |= 1 << lane
				active &^= 1 << lane
			}
		}
	}
}

// runBlock measures the block's stabilizers for one lane — the scalar
// fallback path, implemented as the word-wide measurement under a
// single-lane mask so the lane's fault-location order matches the scalar
// engine's — and XORs the dense-table recovery into the corrected sector.
func (b *Batch) runBlock(bs *BatchShot, blk *progBlock, inj noise.BatchInjector, lane uint) {
	mask := uint64(1) << lane
	var idx uint64
	for i := range blk.meas {
		out, _ := b.measure(bs, &blk.meas[i], inj, mask)
		if out != 0 {
			idx |= 1 << uint(i)
		}
	}
	rec := blk.rec[idx]
	if rec == nil {
		return
	}
	dst := bs.ex
	if !blk.corrEx {
		dst = bs.ez
	}
	// rec is qubit-major (bit q of word q/64); scatter it into bit `lane`
	// of the lane-major frame.
	for j, w := range rec {
		for ww := w; ww != 0; ww &= ww - 1 {
			dst[j*64+bits.TrailingZeros64(ww)] ^= mask
		}
	}
}

// measure is the 64-lane twin of Program.measure: one ancilla-mediated
// stabilizer measurement, word-wide over the lanes in active, with
// identical per-lane fault-location order. The returned outcome and flag
// words are masked to active.
//
// Masking invariant: the only words XORed into data frames are the fault
// masks and (zType) ancZ / (xType) ancX, all of which accumulate
// exclusively active-masked fault bits — so an inactive lane's frame is
// never touched, even though the word-wide ops nominally span all lanes.
func (b *Batch) measure(bs *BatchShot, m *progMeas, inj noise.BatchInjector, active uint64) (out, flag uint64) {
	w := len(m.order)
	zType := m.zType
	var ancX, ancZ, flagX, flagZ uint64

	// Ancilla preparation.
	ancX, ancZ = inj.Draw1Q(active)

	dataCNOT := func(q int32) {
		if zType {
			// CNOT(data q -> anc): X spreads q->anc, Z spreads anc->q.
			ancX ^= bs.ex[q]
			bs.ez[q] ^= ancZ
		} else {
			// CNOT(anc -> data q).
			bs.ex[q] ^= ancX
			ancZ ^= bs.ez[q]
		}
		x1, z1, x2, z2 := inj.Draw2Q(active)
		if zType {
			bs.ex[q] ^= x1
			bs.ez[q] ^= z1
			ancX ^= x2
			ancZ ^= z2
		} else {
			ancX ^= x1
			ancZ ^= z1
			bs.ex[q] ^= x2
			bs.ez[q] ^= z2
		}
	}
	flagCNOT := func() {
		if zType {
			// CNOT(flag -> anc).
			ancX ^= flagX
			flagZ ^= ancZ
		} else {
			// CNOT(anc -> flag).
			flagX ^= ancX
			ancZ ^= flagZ
		}
		x1, z1, x2, z2 := inj.Draw2Q(active)
		if zType {
			flagX ^= x1
			flagZ ^= z1
			ancX ^= x2
			ancZ ^= z2
		} else {
			ancX ^= x1
			ancZ ^= z1
			flagX ^= x2
			flagZ ^= z2
		}
	}

	dataCNOT(m.order[0])
	if m.useFlag {
		flagX, flagZ = inj.Draw1Q(active) // flag preparation
		flagCNOT()
	}
	for j := 1; j < w-1; j++ {
		dataCNOT(m.order[j])
	}
	if m.useFlag {
		flagCNOT()
		// Flag measurement: X basis for Z-type, Z basis for X-type.
		mf := inj.DrawMeas(active)
		if zType {
			flag = (flagZ ^ mf) & active
		} else {
			flag = (flagX ^ mf) & active
		}
	}
	if w > 1 {
		dataCNOT(m.order[w-1])
	}
	mf := inj.DrawMeas(active)
	if zType {
		out = (ancX ^ mf) & active
	} else {
		out = (ancZ ^ mf) & active
	}
	return out, flag
}

// Judge applies the perfect lookup-table EC round to every live lane's
// residual X frame and returns the mask of lanes with a logical error,
// exactly like Program.Judge per lane, without allocating. It XORs frame
// words into one syndrome word per check row and one logical word per
// logical-Z row, bit l holding lane l's parity. The zero syndrome's
// correction is the identity, so a lane with a zero syndrome — the
// overwhelming majority at realistic rates — fails iff one of its logical
// bits is set, which is one word-wide test for all of them. Only the lanes
// with a nonzero syndrome s gather their syndrome index and logical bits
// and compare the latter with λ(s), as Program.Judge does.
func (b *Batch) Judge(bs *BatchShot) uint64 {
	var dirty, flipped uint64 // lanes with a nonzero syndrome; with a logical bit set
	for i, qs := range b.checks {
		bs.syn[i] = parityWord(bs.ex, qs)
		dirty |= bs.syn[i]
	}
	for j, qs := range b.logicals {
		bs.lgc[j] = parityWord(bs.ex, qs)
		flipped |= bs.lgc[j]
	}
	dirty &= bs.Live
	fails := flipped &^ dirty & bs.Live
	for a := dirty; a != 0; a &= a - 1 {
		lane := uint(bits.TrailingZeros64(a))
		var idx, lgc uint64
		for i, w := range bs.syn {
			idx |= (w >> lane & 1) << uint(i)
		}
		for j, w := range bs.lgc {
			lgc |= (w >> lane & 1) << uint(j)
		}
		if lgc != b.prog.lambda[idx] {
			fails |= 1 << lane
		}
	}
	return fails
}

// parityWord XORs the lane-major frame words of the listed qubits: bit l
// of the result is lane l's parity over them.
func parityWord(frame []uint64, qs []int32) uint64 {
	var w uint64
	for _, q := range qs {
		w ^= frame[q]
	}
	return w
}

// LaneOutcome converts one lane of the batch state into the scalar Outcome
// form (allocating; used by the cross-check tests, never by the hot loop).
// Outcome.Sigs is left empty — the batch engine does not retain signature
// history.
func (b *Batch) LaneOutcome(bs *BatchShot, lane int) Outcome {
	pr := b.prog
	bit := uint64(1) << uint(lane)
	out := Outcome{
		Ex:              f2.NewVec(pr.n),
		Ez:              f2.NewVec(pr.n),
		Triggered:       bs.Triggered&bit != 0,
		UnknownClass:    bs.UnknownClass&bit != 0,
		TerminatedEarly: bs.TerminatedEarly&bit != 0,
	}
	for q := 0; q < pr.n; q++ {
		if bs.ex[q]&bit != 0 {
			out.Ex.Flip(q)
		}
		if bs.ez[q]&bit != 0 {
			out.Ez.Flip(q)
		}
	}
	return out
}
