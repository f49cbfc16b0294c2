package noise

import (
	"math"
	"math/bits"
)

// This file implements conditional fault sampling for the rare-event
// estimator: drawing fault configurations from the E1_1 model conditioned on
// at least one fault occurring. The construction exploits a structural fact
// of the simulator: a shot with zero faults follows the fault-free path
// exactly, which has a fixed number N of fault locations. Consequently
// "the shot has >= 1 fault" is equivalent to "the first fault lands on one
// of the first N locations", and the conditional distribution factorizes
// sequentially:
//
//   - the first fault's location J is truncated-geometric on [0, N):
//     P(J = j | J < N) = (1-p)^j p / (1 - (1-p)^N),
//   - locations before J are fault-free, the location after J onward fault
//     independently with probability p each (plain geometric gaps), wherever
//     the now-divergent trajectory takes the shot,
//   - the faulting operator at each location is drawn from the location's
//     menu exactly as in the unconditional model.
//
// This is the exact conditional law, not an approximation: replaying it and
// reweighting verdicts by P(#faults >= 1) = 1-(1-p)^N reproduces the direct
// Monte-Carlo distribution bit-for-bit in expectation, which is what the
// overlap-regime cross-check tests pin statistically. singles.go extends the
// law to shots conditioned on at least two faults.

// noFault marks a location counter value no real location reaches: a lane
// (or scalar shot) whose next-fault index is noFault runs fault-free until
// its next Reset.
const noFault = ^uint32(0)

// condLaw is the conditional fault schedule every shot of a conditional
// sampler shares, built once per (model, protocol) pair: the chain layout
// (one chain for a uniform-rate model, one per class otherwise), each
// chain's gap table, the first-fault law and the operator menus.
// CondSampler and CondInjector both draw every shot's first faults (first)
// and continuation gaps (at) through it.
//
// With per-class rates the sequential factorization above generalizes: the
// first fault's location J on the fault-free path follows
// P(J = j | J < N) = (prod_{i<j} (1-p_{k_i})) p_{k_j} / CondP — inverted by
// one uniform draw against the precomputed CDF — and each location class
// continues with its own plain geometric chain in that class's own local
// location order (per-class Bernoulli sampling is memoryless, so the chains
// stay exact wherever the divergent trajectory goes). A uniform model skips
// the tables: its first fault is the closed-form truncated geometric on the
// single chain, which keeps the legacy RNG stream bit-identically.
type condLaw struct {
	chainLayout
	n     uint32  // fault-free-path length N
	condP float64 // P(#faults >= k) over the fault-free path
	menus menuSet

	// reach bounds every chain-local location a shot can execute: at
	// schedules nothing at or past it. It is the single-fault table's Reach
	// under the K >= 2 law and noFault (no bound) otherwise.
	reach uint64

	// Per-class first-fault tables; nil for a uniform model.
	cdf  []float64   // first-fault CDF over fault-free-path locations
	kcls []uint8     // location class of each fault-free-path location
	pfx  [][3]uint32 // pfx[j][c] = class-c locations among locations [0..j]

	// pair is the K >= 2 law (singles.go), shared through the table's
	// cache; nil for the K >= 1 law.
	pair *pairLaw
}

// newCondLaw builds the schedule for model m over a fault-free path with the
// given location kinds, with gap tables from sk. The caller guarantees
// 0 < CondP < 1 (see NewCondSamplerModel).
func newCondLaw(m Model, kinds []LocKind, sk *Skips) condLaw {
	l := newChains(m, sk)
	l.n = uint32(len(kinds))
	l.condP = CondProbModel(m, CountKinds(kinds))
	if l.nch == 1 {
		return l
	}
	n := len(kinds)
	l.cdf = make([]float64, n)
	l.kcls = make([]uint8, n)
	l.pfx = make([][3]uint32, n)
	var counts [3]uint32
	surv, sum := 1.0, 0.0
	for j, k := range kinds {
		l.kcls[j] = uint8(k)
		counts[k]++
		l.pfx[j] = counts
		p := l.rate[k]
		sum += surv * p
		surv *= 1 - p
		l.cdf[j] = sum
	}
	// Normalize by the accumulated mass (self-consistent with the entries)
	// and close the table exactly, so the inversion below cannot run off the
	// end at u = 1.
	for j := range l.cdf {
		l.cdf[j] /= sum
	}
	l.cdf[n-1] = 1
	return l
}

// newChains returns the law's chain layout, gap tables and operator menus
// for model m, with no first-fault tables yet.
func newChains(m Model, sk *Skips) condLaw {
	return condLaw{chainLayout: layoutOf(m, sk), menus: newMenuSet(m.Eta), reach: uint64(noFault)}
}

// newCondLaw2 returns the K >= 2 schedule for model m over the protocol's
// single-fault table: the table's cached law of m (Singles.law) on the
// chains of m, with gap tables from sk. It allocates nothing once the law
// and the gap tables exist. The caller guarantees every class rate below 1
// and 0 < tab.CondProb(m).
func newCondLaw2(m Model, tab *Singles, sk *Skips) condLaw {
	pl := tab.law(m)
	l := condLaw{chainLayout: layoutOf(m, sk), n: uint32(tab.N), condP: pl.condP, menus: pl.menus, reach: uint64(noFault), pair: pl}
	if tab.Reach > 0 {
		l.reach = uint64(tab.Reach)
	}
	return l
}

// at schedules chain c's next fault at or after chain-local location from:
// from plus one geometric skip, or noFault when that lands at or past the
// law's reach, where no shot gets to. It consumes exactly one RNG output,
// as geomSkip does, and returns the same location whenever that is below
// the reach. A fallback gap bucket whose lower bound already carries the
// fault past the reach answers without evaluating the logarithm.
func (l *condLaw) at(rng *SplitMix64, c int, from uint32) uint32 {
	t := l.tab[c]
	x := rng.Next()
	gap := uint64(t.gap[x>>(64-skipBits)])
	if gap&uint64(skipMiss) != 0 {
		if uint64(from)+(gap&^uint64(skipMiss)) >= l.reach {
			return noFault
		}
		gap = t.expr(x)
	}
	if nxt := uint64(from) + gap; nxt < l.reach {
		return uint32(nxt)
	}
	return noFault
}

// first draws one shot's forced first fault and returns every chain's
// next-fault location. A uniform model draws the truncated geometric on its
// single chain: J = floor(log(1 - u·CondP)/log(1-p)) for u uniform in
// (0, 1], clamped to N-1 against the float edge at u = 1. A per-class model
// inverts one uniform against the CDF: the first fault's class fires at its
// own class-local index, and every other faultable class starts a plain
// geometric chain on its locations after the first fault.
func (l *condLaw) first(rng *SplitMix64) [3]uint32 {
	next := [3]uint32{noFault, noFault, noFault}
	if l.cdf == nil {
		j := uint32(math.Log1p(-rng.Float64()*l.condP) * l.tab[0].invLog)
		next[0] = min(j, l.n-1)
		return next
	}
	lo := searchCDF(l.cdf, rng.Float64())
	c0 := int(l.kcls[lo])
	next[c0] = l.pfx[lo][c0] - 1 // the forced location, class-locally
	for c := range next {
		if c != c0 && l.tab[c] != nil {
			// The first class-c location after the forced one is
			// class-local index pfx[lo][c].
			next[c] = l.at(rng, c, l.pfx[lo][c])
		}
	}
	return next
}

// CondSampler is the conditional twin of SparseSampler for the 64-lane
// batch engine: every live lane of every word is guaranteed at least k
// faults (k = 1, or k = 2 under the single-fault table's law), drawn from
// the exact conditional distribution above. Unlike SparseSampler it must
// track each lane's own position on every chain (the conditioning is
// defined in each lane's own location order, which advances only while the
// lane is in the active mask) — the price of never sampling a shot with
// fewer than k faults. Each chain keeps those positions as a calendar of
// the lanes with a fault still pending (laneClock), so a draw costs one
// slot lookup plus one update per lane of whichever group is smaller, the
// pending lanes that advance or those that sit the draw out, instead of
// one counter update per active lane. A lane whose next fault on a chain
// is noFault leaves that chain's calendar until the next Reset.
//
// Call Reset before every 64-shot word to redraw the forced faults; a
// CondSampler is not safe for concurrent use.
type CondSampler struct {
	// P is the one-qubit-class physical fault probability — for a uniform
	// model, the single rate of every location.
	P float64

	// N is the number of fault locations on the fault-free path.
	N int

	// CondP is the conditioning weight P(#faults >= k) — CondProbModel
	// for k = 1, Singles.CondProb for k = 2: the exact probability mass the
	// conditional sample represents. Multiply conditional failure
	// proportions by CondP to recover unconditional ones.
	CondP float64

	// Faults[l] counts the faults injected into lane l since the last
	// Reset; the rare-event estimator bins verdicts by it (fault-count
	// strata).
	Faults [64]uint16

	rng   SplitMix64
	law   condLaw
	clock [3]laneClock // per chain: each lane's next fault and its distance

	// K >= 2 law only: each lane's fault after next on the chains in
	// hasThen, and the table operator of the first fault of the lanes in
	// forced.
	then    [3][64]uint32
	hasThen [3]uint64
	forced  uint64
	op      [64]Fault
}

// NewCondSamplerModel returns a conditional sampler for a per-class noise
// model over a fault-free path with the given location kinds, with the RNG
// stream seeded by seed. A model with one shared class rate p runs the
// single truncated-geometric chain above; distinct rates run one geometric
// chain per class against the precomputed first-fault tables. The model must
// satisfy 0 < CondP < 1 — every class rate in [0, 1) and at least one
// faultable location — outside which the conditional distribution does not
// exist (no faults to condition on, or conditioning vacuous and the plain
// SparseSampler exact); callers validate before constructing. Gap tables
// come from sk as in NewSparseSamplerModel.
func NewCondSamplerModel(m Model, kinds []LocKind, seed uint64, sk *Skips) *CondSampler {
	return newCondSampler(m, newCondLaw(m, kinds, sk), seed)
}

// NewCondSampler2 returns a K >= 2 conditional sampler for model m over the
// protocol's single-fault table (singles.go): every live lane holds at least
// two faults, the first one a table entry with the table's operator. Every
// class rate must lie in [0, 1) and tab.CondProb(m) must be positive;
// callers validate before constructing.
func NewCondSampler2(m Model, tab *Singles, seed uint64, sk *Skips) *CondSampler {
	return newCondSampler(m, newCondLaw2(m, tab, sk), seed)
}

func newCondSampler(m Model, law condLaw, seed uint64) *CondSampler {
	s := &CondSampler{P: m.P1Q, N: int(law.n), CondP: law.condP, rng: SplitMix64{State: seed}, law: law}
	s.Reset(0) // every lane fault-free until the first Reset
	return s
}

// condProb returns P(#faults >= 1) = 1-(1-p)^n for n independent
// Bernoulli(p) fault locations, computed via expm1/log1p so it stays
// accurate when n·p is tiny (at p = 1e-9 the naive form loses every
// significant digit). Out-of-range rates clamp to the exact limits:
// 0 for p <= 0, 1 for p >= 1. It is the uniform branch of CondProbModel.
func condProb(n int, p float64) float64 {
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(float64(n) * math.Log1p(-p))
}

// CondProbModel returns P(#faults >= 1) = 1 - prod_c (1-p_c)^(n_c) over the
// per-class location counts of the fault-free path (CountKinds), accumulated
// in log space so it stays accurate when every n_c·p_c is tiny. A uniform
// model evaluates 1-(1-p)^N over the total N directly, so only the total of
// counts matters there. Boundary rates take their exact limits NaN/Inf-free:
// a class at rate >= 1 with locations forces 1, zero-rate or empty classes
// contribute nothing, and a path with no faultable locations returns 0.
func CondProbModel(m Model, counts [3]int) float64 {
	if p, ok := m.UniformRate(); ok {
		return condProb(counts[0]+counts[1]+counts[2], p)
	}
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	sum := 0.0
	for c, n := range counts {
		if n <= 0 || rates[c] <= 0 {
			continue
		}
		if rates[c] >= 1 {
			return 1
		}
		sum += float64(n) * math.Log1p(-rates[c])
	}
	if sum == 0 {
		return 0
	}
	return -math.Expm1(sum)
}

// Reseed restarts the sampler's RNG stream at seed, as if freshly
// constructed; the adaptive estimator uses it to give every fixed-size
// sampling block its own deterministic stream independent of which worker
// runs it.
func (s *CondSampler) Reseed(seed uint64) { s.rng.State = seed }

// Reset begins a new 64-shot word: lane positions and fault tallies
// clear, and every lane in live gets its forced faults from the shared
// schedule (condLaw.first, or condLaw.pairs under the K >= 2 law). Lanes
// outside live run fault-free.
func (s *CondSampler) Reset(live uint64) {
	s.Faults = [64]uint16{}
	s.hasThen, s.forced = [3]uint64{}, 0
	for c := 0; c < s.law.nch; c++ {
		s.clock[c].reset()
	}
	for l := live; l != 0; l &= l - 1 {
		lane := bits.TrailingZeros64(l)
		bit := uint64(1) << lane
		if s.law.pair == nil {
			next := s.law.first(&s.rng)
			for c := 0; c < s.law.nch; c++ {
				s.clock[c].plan(lane, next[c], uint64(next[c]))
			}
			continue
		}
		sc := s.law.pairs(&s.rng)
		for c := 0; c < s.law.nch; c++ {
			s.clock[c].plan(lane, sc.next[c], uint64(sc.next[c]))
			if sc.hasThen>>c&1 == 1 {
				s.then[c][lane] = sc.then[c]
				s.hasThen[c] |= bit
			}
		}
		s.op[lane] = sc.op
		s.forced |= bit
	}
}

// draw advances every active lane by one location on the kind's chain and
// fires the scheduled faults in lane order, mirroring BatchPlan's location
// semantics (positions advance only while the lane is active). A fired
// fault reschedules its chain — to the lane's planned fault after it, or
// one geometric gap on — and then takes the table operator of a forced
// first fault or, at gate locations, a draw from the kind's menu (a
// measurement flip draws nothing).
func (s *CondSampler) draw(kind LocKind, active uint64, visit func(lane uint, f Fault)) {
	c := int(s.law.cls[kind])
	k := &s.clock[c]
	for fire := k.step(active); fire != 0; fire &= fire - 1 {
		lane := uint(bits.TrailingZeros64(fire))
		loc := k.next[lane]
		s.Faults[lane]++
		bit := uint64(1) << lane
		var nxt uint32
		if s.hasThen[c]&bit != 0 {
			s.hasThen[c] &^= bit
			nxt = s.then[c][lane]
		} else {
			nxt = s.law.at(&s.rng, c, loc+1)
		}
		k.plan(int(lane), nxt, uint64(nxt-loc-1))
		var f Fault
		switch {
		case s.forced&bit != 0:
			s.forced &^= bit
			f = s.op[lane]
		case kind != LocMeas:
			f = s.law.menus[kind].draw(&s.rng)
		}
		visit(lane, f)
	}
}

// ring is the number of calendar slots of a laneClock.
const ring = 64

// laneClock is one chain's calendar of the lanes of a word with a fault
// still to come on the chain. A pending lane's distance is the number of
// its own chain locations left before its next fault; the lane fires at
// the draw it is active in at distance 0. The clock stores a due tick per
// lane, distance = due - tick, and a lane at distance below ring sits in
// slot due mod ring, so the slot of the current tick holds exactly the
// lanes at distance 0. A draw (step) then either advances the tick, which
// brings every lane one closer at once, and moves the pending lanes that
// sat the draw out one tick on; or, when fewer lanes advance than sit
// out, leaves the tick and moves each advancing lane one tick closer.
// Lanes at distance ring or more wait outside the slots, in far, and enter
// them before they can come due.
type laneClock struct {
	tick    uint64
	pending uint64 // lanes with a fault to come
	far     uint64 // pending lanes outside the slots
	minFar  uint64 // at most the smallest due tick in far
	due     [64]uint64
	next    [64]uint32 // chain-local index of each pending lane's next fault
	slot    [ring]uint64
}

// reset empties the clock for a new word.
func (k *laneClock) reset() {
	for p := k.pending &^ k.far; p != 0; p &= p - 1 {
		k.slot[k.due[bits.TrailingZeros64(p)]%ring] = 0
	}
	k.tick, k.pending, k.far, k.minFar = 0, 0, 0, math.MaxUint64
}

// plan sets lane's next fault to chain-local location at, dist of the
// lane's chain locations away; noFault retires the lane until reset.
func (k *laneClock) plan(lane int, at uint32, dist uint64) {
	bit := uint64(1) << lane
	if at == noFault {
		k.pending &^= bit
		return
	}
	k.pending |= bit
	k.next[lane] = at
	d := k.tick + dist
	k.due[lane] = d
	if dist < ring {
		k.slot[d%ring] |= bit
		return
	}
	k.far |= bit
	k.minFar = min(k.minFar, d)
}

// move shifts the due tick of every lane in m by one, later for by = 1 and
// earlier for by = -1 (as a uint64).
func (k *laneClock) move(m, by uint64) {
	for ; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		bit := uint64(1) << lane
		d := k.due[lane]
		k.due[lane] = d + by
		if k.far&bit != 0 {
			k.minFar = min(k.minFar, d+by)
			continue
		}
		k.slot[d%ring] &^= bit
		k.slot[(d+by)%ring] |= bit
	}
}

// step accounts one draw on the chain with the given lanes active and
// returns the active lanes at distance 0, taken out of the calendar's
// slots: those fire at this draw.
func (k *laneClock) step(active uint64) uint64 {
	t := k.tick
	if k.minFar < t+ring {
		// Far lanes come at most one tick closer per draw: slot every one
		// now within ring of the tick before any of them can come due.
		k.minFar = math.MaxUint64
		for f := k.far; f != 0; f &= f - 1 {
			lane := bits.TrailingZeros64(f)
			if d := k.due[lane]; d < t+ring {
				k.far &^= 1 << lane
				k.slot[d%ring] |= 1 << lane
			} else {
				k.minFar = min(k.minFar, d)
			}
		}
	}
	on, off := active&k.pending, k.pending&^active
	fire := k.slot[t%ring] & on
	if bits.OnesCount64(off) < bits.OnesCount64(on) {
		k.move(off, 1)
		k.tick = t + 1
	} else {
		k.move(on&^fire, ^uint64(0))
	}
	k.slot[t%ring] &^= fire
	return fire
}

// Draw1Q implements BatchInjector: uniform {X, Y, Z} on faulted lanes.
func (s *CondSampler) Draw1Q(active uint64) (x, z uint64) {
	var w laneFaults
	s.draw(Loc1Q, active, w.add)
	return w.x1, w.z1
}

// Draw2Q implements BatchInjector: the model's two-qubit menu — uniform
// over the 15 non-identity two-qubit Paulis at Eta == 1, Z-biased otherwise
// — on faulted lanes.
func (s *CondSampler) Draw2Q(active uint64) (x1, z1, x2, z2 uint64) {
	var w laneFaults
	s.draw(Loc2Q, active, w.add)
	return w.x1, w.z1, w.x2, w.z2
}

// DrawMeas implements BatchInjector: a classical flip on faulted lanes.
// Unlike CondInjector.Next it draws no operator from the one-element
// measurement menu.
func (s *CondSampler) DrawMeas(active uint64) (flip uint64) {
	s.draw(LocMeas, active, func(lane uint, _ Fault) {
		flip |= 1 << lane
	})
	return
}

// CondInjector is the scalar twin of CondSampler for the compiled and
// interpreted engines: one shot per Reset, the same exact conditional law
// drawn through the same schedule. It backs the rare-event estimator's
// scalar fallback when a protocol exceeds the batch engine's packing
// limits, and the scalar-vs-batch conditional cross-check.
type CondInjector struct {
	// P, N and CondP mirror the CondSampler fields.
	P     float64
	N     int
	CondP float64

	// Faults counts the faults injected since the last Reset.
	Faults int

	rng  SplitMix64
	law  condLaw
	cnt  [3]uint32 // chain-local locations executed since Reset
	next [3]uint32 // chain-local index of the next fault

	// K >= 2 law only, as in CondSampler.
	then    [3]uint32
	hasThen uint8
	forced  bool
	op      Fault
}

// NewCondInjectorModel returns a scalar conditional injector for a
// per-class noise model; the argument contract matches NewCondSamplerModel
// (0 < CondP < 1), and a model with one shared class rate likewise runs the
// single-chain path.
func NewCondInjectorModel(m Model, kinds []LocKind, seed uint64, sk *Skips) *CondInjector {
	return newCondInjector(m, newCondLaw(m, kinds, sk), seed)
}

// NewCondInjector2 returns a scalar K >= 2 conditional injector; the
// argument contract matches NewCondSampler2.
func NewCondInjector2(m Model, tab *Singles, seed uint64, sk *Skips) *CondInjector {
	return newCondInjector(m, newCondLaw2(m, tab, sk), seed)
}

func newCondInjector(m Model, law condLaw, seed uint64) *CondInjector {
	c := &CondInjector{P: m.P1Q, N: int(law.n), CondP: law.condP, rng: SplitMix64{State: seed}, law: law}
	c.next = [3]uint32{noFault, noFault, noFault}
	return c
}

// Reseed restarts the injector's RNG stream at seed, as if freshly
// constructed.
func (c *CondInjector) Reseed(seed uint64) { c.rng.State = seed }

// Reset begins a new shot: the location counters and fault tally clear and
// fresh forced faults are drawn.
func (c *CondInjector) Reset() {
	c.Faults = 0
	c.cnt = [3]uint32{}
	if c.law.pair == nil {
		c.next = c.law.first(&c.rng)
		return
	}
	sc := c.law.pairs(&c.rng)
	c.next, c.then, c.hasThen = sc.next, sc.then, sc.hasThen
	c.op, c.forced = sc.op, true
}

// Next implements Injector. A fired fault reschedules its chain as
// CondSampler.draw does; a forced first fault takes the table operator, and
// every other fault draws its operator from the kind's menu — at a
// measurement location the one-element menu still consumes one RNG output,
// where CondSampler.DrawMeas draws none.
func (c *CondInjector) Next(kind LocKind) Fault {
	ch := int(c.law.cls[kind])
	loc := c.cnt[ch]
	c.cnt[ch] = loc + 1
	if loc != c.next[ch] {
		return Fault{}
	}
	c.Faults++
	if c.hasThen>>ch&1 == 1 {
		c.hasThen &^= 1 << ch
		c.next[ch] = c.then[ch]
	} else {
		c.next[ch] = c.law.at(&c.rng, ch, loc+1)
	}
	if c.forced {
		c.forced = false
		return c.op
	}
	return c.law.menus[kind].draw(&c.rng)
}
