package sim

import (
	"math/bits"

	"repro/internal/decoder"
	"repro/internal/noise"
)

// Batch is a core.Protocol compiled (by Compile) into the 64-lane
// bit-parallel Monte-Carlo engine: lane l of every word is an independent
// shot, so one pass over the compiled op lists advances 64 shots at once.
//
// Layout: the Pauli frame is lane-major — one uint64 per wire, bit l
// holding lane l's frame bit — so every gate becomes a few word-wide XORs.
// The wires are the n data qubits, then the one ancilla and the one flag
// that every measurement of core.AppendMeasurement's gadget reuses. The
// preparation, each verification layer and each correction block are op
// lists run by one loop (exec); a measurement op writes its outcome word
// into an outcome slot. Fault injection goes through a
// noise.BatchInjector; with a noise.SparseSampler the injector
// skip-samples the lane×site grid geometrically, so at realistic physical
// rates almost every site costs one comparison and zero RNG calls, instead
// of 64 per-lane draws.
//
// Divergent control flow is handled with lane masks: every op runs
// word-wide under the mask of still-active lanes. The lanes whose layer
// signature is nonzero are matched against each class's packed signature
// with one AND or AND-NOT per outcome slot; then each class's correction
// blocks run once, word-wide, under the mask of the class's lanes —
// primary blocks first, then the hook blocks of the flagged lanes, each in
// first-lane order — and each lane's recovery is read off its own syndrome
// bits. A lane therefore meets exactly the locations the interpreted
// executor would, in the same order (the fixed-fault-mask cross-check pins
// this), while a skip chain draws one site per block op for the whole class
// instead of one per lane. A lane that terminates early (hook flag fired,
// Fig. 3(e)) simply leaves the active mask — subsequent sites neither fault
// nor touch it.
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
	n, nw  int // data qubits; words per data frame
	prep   []gateOp
	layers []progLayer
	slots  int // outcome slots of the widest verification layer

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
	// Lane-major frames of the data qubits; the ancilla and flag words sit
	// past them, within capacity.
	ex, ez   []uint64
	out      []uint64 // outcome slots of the layer or block just measured
	syn, lgc []uint64 // Judge scratch: syndrome and logical parity words

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
		ex:  make([]uint64, b.n, b.n+2),
		ez:  make([]uint64, b.n, b.n+2),
		out: make([]uint64, max(b.slots, maxBlockStabs)),
		syn: make([]uint64, len(b.checkQubits)),
		lgc: make([]uint64, len(b.lzQubits)),
	}
}

// Run executes one 64-shot word of the compiled protocol under the
// injector: lane l of live is one independent shot (clear bits are skipped
// entirely — partial words at the end of a budget pass a partial mask). The
// residual frames and branch-flag masks are left in bs. It performs no heap
// allocations.
func (b *Batch) Run(bs *BatchShot, inj noise.BatchInjector, live uint64) {
	clear(bs.ex)
	clear(bs.ez)
	bs.Live = live
	bs.Triggered, bs.UnknownClass, bs.TerminatedEarly = 0, 0, 0
	b.exec(bs, b.prep, inj, live)
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

// exec runs ops word-wide over the lanes in active, drawing one fault site
// per op in order. Measurement outcomes are masked to active.
//
// Masking invariant: in a measurement gadget the only words XORed into
// data frames are fault masks and the ancilla's words, which accumulate
// exclusively active-masked fault bits on the sector they spread, and the
// preparation runs before any lane terminates — so an inactive lane's data
// frame is never touched, even though the word-wide ops nominally span all
// lanes.
func (b *Batch) exec(bs *BatchShot, ops []gateOp, inj noise.BatchInjector, active uint64) {
	ex, ez := bs.ex[:b.n+2], bs.ez[:b.n+2]
	for _, g := range ops {
		switch g.kind {
		case opPrep:
			ex[g.q1], ez[g.q1] = inj.Draw1Q(active)
		case opH:
			x, z := inj.Draw1Q(active)
			ex[g.q1], ez[g.q1] = ez[g.q1]^x, ex[g.q1]^z
		case opCNOT:
			ex[g.q2] ^= ex[g.q1]
			ez[g.q1] ^= ez[g.q2]
			x1, z1, x2, z2 := inj.Draw2Q(active)
			ex[g.q1] ^= x1
			ez[g.q1] ^= z1
			ex[g.q2] ^= x2
			ez[g.q2] ^= z2
		case opMeasZ:
			bs.out[g.q2] = (ex[g.q1] ^ inj.DrawMeas(active)) & active
		case opMeasX:
			bs.out[g.q2] = (ez[g.q1] ^ inj.DrawMeas(active)) & active
		}
	}
}

// verify runs one verification layer word-wide over the lanes in active,
// leaving its signature bits in the outcome slots, and returns the mask of
// lanes with a nonzero signature.
func (b *Batch) verify(bs *BatchShot, lay *progLayer, inj noise.BatchInjector, active uint64) (trig uint64) {
	out := bs.out[:2*lay.m]
	clear(out) // an unflagged measurement's flag slot stays 0
	b.exec(bs, lay.ops, inj, active)
	for _, w := range out {
		trig |= w
	}
	return trig
}

// correct resolves the triggered lanes trig of the layer just measured and
// returns the mask of lanes whose hook flag fired. It matches the lanes
// against each class's signature word-wide, then runs each class's primary
// block once over all of the class's lanes, and then each class's hook
// block once over its flagged lanes, taking classes in first-lane order.
// Every lane thus still meets its primary block's locations before its
// hook's, in the interpreted executor's order. Each class compiles blocks
// of its own, so one class is one distinct block.
func (b *Batch) correct(bs *BatchShot, lay *progLayer, inj noise.BatchInjector, trig uint64) (flagged uint64) {
	out := bs.out[:2*lay.m]
	var fired uint64 // lanes with a flag outcome
	for _, w := range out[lay.m:] {
		fired |= w
	}
	// The classes that hold a lane, and their lanes. Signatures are
	// distinct, so no lane is in two classes.
	var hit [64]*progClass
	var lanes [64]uint64
	nh, left := 0, trig
	for ci := range lay.classes {
		cc := &lay.classes[ci]
		in := left
		for k, w := range out {
			// Keep the lanes whose bit k equals the signature's.
			in &^= w ^ -(cc.sig >> uint(k) & 1)
			if in == 0 {
				break
			}
		}
		if in != 0 {
			hit[nh], lanes[nh] = cc, in
			nh++
			if left &^= in; left == 0 {
				break
			}
		}
	}
	bs.UnknownClass |= left
	flagged = fired & (trig &^ left)
	var prim, hook uint64 // lanes with a primary, a hook block to run
	for i, cc := range hit[:nh] {
		if cc.primary != nil {
			prim |= lanes[i]
		}
		if cc.hook != nil {
			hook |= lanes[i] & fired
		}
	}
	for prim != 0 {
		i := firstHit(lanes[:nh], prim)
		b.runBlock(bs, hit[i].primary, inj, lanes[i])
		prim &^= lanes[i]
	}
	for hook != 0 {
		i := firstHit(lanes[:nh], hook)
		b.runBlock(bs, hit[i].hook, inj, lanes[i]&hook)
		hook &^= lanes[i]
	}
	bs.TerminatedEarly |= flagged
	return flagged
}

// firstHit returns the index of the lane set that holds the first lane of
// pending.
func firstHit(lanes []uint64, pending uint64) int {
	first := pending & -pending
	i := 0
	for lanes[i]&first == 0 {
		i++
	}
	return i
}

// runBlock measures the block's stabilizers word-wide over lanes and XORs
// each lane's dense-table recovery, indexed by that lane's own outcome
// bits, into the lane's corrected sector. The block's outcomes reuse the
// layer's slots, which correct has read by then.
func (b *Batch) runBlock(bs *BatchShot, blk *progBlock, inj noise.BatchInjector, lanes uint64) {
	b.exec(bs, blk.ops, inj, lanes)
	outs := bs.out[:blk.u]
	var fired uint64 // lanes with a nonzero syndrome
	for _, w := range outs {
		fired |= w
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
		for i, w := range outs {
			idx |= (w >> lane & 1) << uint(i)
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
