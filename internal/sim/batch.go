package sim

import (
	"math/bits"

	"repro/internal/decoder"
	"repro/internal/noise"
)

// Batch is a core.Protocol compiled (by Compile) into the 64-lane
// bit-parallel Monte-Carlo engine: lane l of every word is an independent
// shot, so one pass over the flattened op list advances 64 shots at once.
//
// Layout: the Pauli frame is lane-major — one uint64 per data qubit, bit l
// holding lane l's frame bit — so preparation gates and the CNOT spreading
// inside stabilizer measurements become single word-wide XORs. Fault
// injection goes through a noise.BatchInjector; with a noise.SparseSampler
// the injector skip-samples the lane×site grid geometrically, so at
// realistic physical rates almost every site costs one comparison and zero
// RNG calls, instead of 64 per-lane draws.
//
// Divergent control flow is handled with lane masks: every measurement runs
// word-wide under the mask of still-active lanes. The (rare) lanes whose
// layer signature is nonzero are extracted with bits.TrailingZeros64 and
// classified through the program's dense class tables; then each class's
// correction blocks run once, word-wide, under the mask of the class's
// lanes — primary blocks first, then the hook blocks of the flagged lanes —
// and each lane's recovery is read off its own syndrome bits. A lane
// therefore meets exactly the locations the interpreted executor would, in
// the same order (the fixed-fault-mask cross-check pins this), while a
// skip chain draws one site per block measurement for the whole class
// instead of one per lane. A lane that terminates early (hook flag fired,
// Fig. 3(e)) simply leaves the active mask — subsequent sites neither
// fault nor touch it.
//
// Lane 0 alone runs one shot: a one-lane Run through the lane adapter,
// which hands every site of the shot to a scalar noise.Injector (see
// Estimator.newShot, which builds the single-fault table this way). It
// consumes the injector in exactly the interpreted executor's location
// order, so for any fixed fault plan (or shared RNG stream) lane 0 and Run
// produce bit-identical outcomes — the cross-check tests pin this down.
//
// A Batch is immutable and safe for concurrent use; all mutable state lives
// in a BatchShot. The repeat-until-success baseline (nondet.go) is out of
// scope — restarts resample whole shots, which the interpreted executor
// already does cheaply.
type Batch struct {
	n, nw   int // data qubits; words per frame
	prep    []gateOp
	layers  []progLayer
	maxMeas int // widest verification layer, sizes the outcome scratch

	// The final perfect-EC round (compileJudge).
	dec    *decoder.Dense
	lz     [][]uint64 // bit-packed logical-Z rows, at most maxLogicals
	lambda []uint64   // syndrome index s -> λ(s) = Lz·c(s), bit j for row j

	// Judge's word-wide parities: the qubits of each decoder check row
	// (bit i of the syndrome index) and of each logical-Z row.
	checkQubits, lzQubits [][]int32
}

// BatchShot is the reusable per-worker scratch of the batch engine: frames,
// outcome words and the Judge parity words are allocated once by NewShot,
// so the steady-state loop performs zero heap allocations per 64-shot word.
//
// The branch flags are lane masks mirroring the interpreted Outcome's
// booleans. Per-layer signature history is not kept: the batch engine
// resolves each nonzero signature immediately; use the interpreted
// executor when signature traces are needed.
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
	return &BatchShot{
		ex:   make([]uint64, b.n),
		ez:   make([]uint64, b.n),
		bOut: make([]uint64, b.maxMeas),
		fOut: make([]uint64, b.maxMeas),
		syn:  make([]uint64, len(b.checkQubits)),
		lgc:  make([]uint64, len(b.lzQubits)),
	}
}

// Run executes one 64-shot word of the compiled protocol under the
// injector: lane l of live is one independent shot (clear bits are skipped
// entirely — partial words at the end of a budget pass a partial mask). The
// residual frames and branch-flag masks are left in bs. It performs no heap
// allocations.
func (b *Batch) Run(bs *BatchShot, inj noise.BatchInjector, live uint64) {
	b.prepare(bs, inj, live)
	active := live
	for li := range b.layers {
		if active == 0 {
			return
		}
		lay := &b.layers[li]
		if trig := b.verify(bs, lay, inj, active); trig != 0 {
			bs.Triggered |= trig
			// Fig. 3(e): a lane whose hook flag fired terminates after its
			// correction; later sites skip it via the mask.
			active &^= b.correct(bs, lay, inj, trig)
		}
	}
}

// prepare clears the frames and branch flags of bs and runs the
// preparation circuit over the lanes in live: straight-line, no divergence
// possible yet.
func (b *Batch) prepare(bs *BatchShot, inj noise.BatchInjector, live uint64) {
	ex, ez := bs.ex, bs.ez
	clear(ex)
	clear(ez)
	bs.Live = live
	bs.Triggered, bs.UnknownClass, bs.TerminatedEarly = 0, 0, 0
	for _, g := range b.prep {
		switch g.kind {
		case opPrep:
			ex[g.q1], ez[g.q1] = inj.Draw1Q(live)
		case opH:
			x, z := inj.Draw1Q(live)
			ex[g.q1], ez[g.q1] = ez[g.q1]^x, ex[g.q1]^z
		case opCNOT:
			ex[g.q2] ^= ex[g.q1]
			ez[g.q1] ^= ez[g.q2]
			x1, z1, x2, z2 := inj.Draw2Q(live)
			ex[g.q1] ^= x1
			ez[g.q1] ^= z1
			ex[g.q2] ^= x2
			ez[g.q2] ^= z2
		}
	}
}

// verify runs one verification layer's measurements word-wide over the
// lanes in active, leaving the outcome and flag words in bs, and returns
// the mask of lanes with a nonzero signature.
func (b *Batch) verify(bs *BatchShot, lay *progLayer, inj noise.BatchInjector, active uint64) (trig uint64) {
	for mi := range lay.meas {
		out, flag := b.measure(bs, &lay.meas[mi], inj, active)
		bs.bOut[mi] = out
		bs.fOut[mi] = flag
		trig |= out | flag
	}
	return trig
}

// signature packs lane's verification outcomes of the layer just measured
// into the key of the layer's class table.
func (bs *BatchShot) signature(lay *progLayer, lane uint) uint64 {
	var bBits, fBits uint64
	for mi := range lay.meas {
		bBits |= (bs.bOut[mi] >> lane & 1) << uint(mi)
		fBits |= (bs.fOut[mi] >> lane & 1) << uint(mi)
	}
	return bBits | fBits<<uint(len(lay.meas))
}

// correct resolves the triggered lanes trig of the layer just measured and
// returns the mask of lanes whose hook flag fired. It first looks every
// lane's class up in the dense class table, then runs each class's primary
// block once over all of the class's lanes, and then each class's hook
// block once over its flagged lanes, taking classes in first-lane order.
// Every lane thus still meets its primary block's locations before its
// hook's, in the interpreted executor's order. Each class compiles blocks
// of its own, so one class is one distinct block.
func (b *Batch) correct(bs *BatchShot, lay *progLayer, inj noise.BatchInjector, trig uint64) (flagged uint64) {
	m := uint(len(lay.meas))
	var prim, hook uint64 // lanes with a primary, a hook block to run
	// Bit k of lane l's class index is bit l of cls[k].
	var cls [32]uint64
	nk := bits.Len(uint(len(lay.classList)))
	for t := trig; t != 0; t &= t - 1 {
		lane := uint(bits.TrailingZeros64(t))
		sig := bs.signature(lay, lane)
		ci, ok := lay.classes[sig]
		if !ok {
			bs.UnknownClass |= 1 << lane
			continue
		}
		for k := 0; k < nk; k++ {
			cls[k] |= uint64(ci>>k&1) << lane
		}
		cc := &lay.classList[ci]
		if cc.primary != nil {
			prim |= 1 << lane
		}
		if sig>>m != 0 {
			flagged |= 1 << lane
			if cc.hook != nil {
				hook |= 1 << lane
			}
		}
	}
	for prim != 0 {
		ci, lanes := classOf(&cls, nk, prim)
		b.runBlock(bs, lay.classList[ci].primary, inj, lanes)
		prim &^= lanes
	}
	for hook != 0 {
		ci, lanes := classOf(&cls, nk, hook)
		b.runBlock(bs, lay.classList[ci].hook, inj, lanes)
		hook &^= lanes
	}
	bs.TerminatedEarly |= flagged
	return flagged
}

// classOf returns the class index of the first lane in pending, read off
// the bit planes cls of nk bits, and the lanes of pending in that class.
func classOf(cls *[32]uint64, nk int, pending uint64) (ci int, lanes uint64) {
	lane := uint(bits.TrailingZeros64(pending))
	lanes = pending
	for k, plane := range cls[:nk] {
		if plane>>lane&1 == 1 {
			ci |= 1 << k
			lanes &= plane
		} else {
			lanes &^= plane
		}
	}
	return ci, lanes
}

// runBlock measures the block's stabilizers word-wide over lanes and XORs
// each lane's dense-table recovery, indexed by that lane's own outcome
// bits, into the lane's corrected sector.
func (b *Batch) runBlock(bs *BatchShot, blk *progBlock, inj noise.BatchInjector, lanes uint64) {
	var outs [maxBlockStabs]uint64
	var fired uint64 // lanes with a nonzero syndrome
	for i := range blk.meas {
		outs[i], _ = b.measure(bs, &blk.meas[i], inj, lanes)
		fired |= outs[i]
	}
	if blk.rec[0] != nil {
		fired = lanes // the zero syndrome has a recovery too
	}
	dst := bs.ex
	if !blk.corrEx {
		dst = bs.ez
	}
	for t := fired; t != 0; t &= t - 1 {
		lane := uint(bits.TrailingZeros64(t))
		var idx uint64
		for i := range blk.meas {
			idx |= (outs[i] >> lane & 1) << uint(i)
		}
		// rec is qubit-major (bit q of word q/64); scatter it into bit
		// lane of the lane-major frame.
		for j, w := range blk.rec[idx] {
			for ; w != 0; w &= w - 1 {
				dst[j*64+bits.TrailingZeros64(w)] ^= 1 << lane
			}
		}
	}
}

// measure is the 64-lane twin of the interpreted executor's measure: one
// ancilla-mediated stabilizer measurement, word-wide over the lanes in
// active, with identical per-lane fault-location order. The returned
// outcome and flag words are masked to active.
//
// Masking invariant: the only words XORed into data frames are the fault
// masks and (zType) ancZ / (xType) ancX, all of which accumulate
// exclusively active-masked fault bits — so an inactive lane's frame is
// never touched, even though the word-wide ops nominally span all lanes.
func (b *Batch) measure(bs *BatchShot, m *progMeas, inj noise.BatchInjector, active uint64) (out, flag uint64) {
	w := len(m.order)
	zType := m.zType
	ex, ez := bs.ex, bs.ez
	var ancX, ancZ, flagX, flagZ uint64

	// Ancilla preparation.
	ancX, ancZ = inj.Draw1Q(active)

	dataCNOT := func(q int32) {
		if zType {
			// CNOT(data q -> anc): X spreads q->anc, Z spreads anc->q.
			ancX ^= ex[q]
			ez[q] ^= ancZ
		} else {
			// CNOT(anc -> data q).
			ex[q] ^= ancX
			ancZ ^= ez[q]
		}
		x1, z1, x2, z2 := inj.Draw2Q(active)
		if zType {
			ex[q] ^= x1
			ez[q] ^= z1
			ancX ^= x2
			ancZ ^= z2
		} else {
			ancX ^= x1
			ancZ ^= z1
			ex[q] ^= x2
			ez[q] ^= z2
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
// exactly like Estimator.Judge per lane, without allocating. The corrected
// frame e ⊕ c(s) is never built: logical parities are linear,
// Lz·(e ⊕ c(s)) = Lz·e ⊕ λ(s), so a lane fails iff its logical parities
// Lz·e differ from the precomputed λ of its syndrome index s. Judge XORs
// frame words into one syndrome word per check row and one logical word
// per logical-Z row, bit l holding lane l's parity. The zero syndrome's
// correction is the identity, so a lane with a zero syndrome — the
// overwhelming majority at realistic rates — fails iff one of its logical
// bits is set, which is one word-wide test for all of them. Only the lanes
// with a nonzero syndrome gather their syndrome index and logical bits and
// compare the latter with λ(s).
func (b *Batch) Judge(bs *BatchShot) uint64 {
	var dirty, flipped uint64 // lanes with a nonzero syndrome; with a logical bit set
	for i, qs := range b.checkQubits {
		bs.syn[i] = parityWord(bs.ex, qs)
		dirty |= bs.syn[i]
	}
	for j, qs := range b.lzQubits {
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
		if lgc != b.lambda[idx] {
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

// lane runs a scalar noise.Injector as lane 0 of the batch engine: each
// Draw call whose active mask holds lane 0 is one location of the lane's
// shot and draws one fault from inj, in the engine's execution order —
// the interpreted executor's order. A call without lane 0 draws nothing.
type lane struct{ inj noise.Injector }

// Draw1Q implements noise.BatchInjector.
func (l *lane) Draw1Q(active uint64) (x, z uint64) {
	if active&1 == 0 {
		return 0, 0
	}
	f := l.inj.Next(noise.Loc1Q)
	return uint64(f.P1 & 1), uint64(f.P1 >> 1 & 1)
}

// Draw2Q implements noise.BatchInjector.
func (l *lane) Draw2Q(active uint64) (x1, z1, x2, z2 uint64) {
	if active&1 == 0 {
		return 0, 0, 0, 0
	}
	f := l.inj.Next(noise.Loc2Q)
	return uint64(f.P1 & 1), uint64(f.P1 >> 1 & 1), uint64(f.P2 & 1), uint64(f.P2 >> 1 & 1)
}

// DrawMeas implements noise.BatchInjector.
func (l *lane) DrawMeas(active uint64) uint64 {
	if active&1 == 0 || !l.inj.Next(noise.LocMeas).Flip {
		return 0
	}
	return 1
}
