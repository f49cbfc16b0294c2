package noise

import (
	"math"
	"math/bits"
)

// SplitMix64 is the SplitMix64 sequence generator (Steele, Lea & Flood,
// OOPSLA 2014). Successive outputs of one seeded sequence provide
// well-separated values: the simulator uses it both to derive per-worker
// RNG seeds and as the raw generator behind the sparse batch fault sampler,
// where a full math/rand source would dominate the profile.
type SplitMix64 struct {
	// State is the current sequence position; seed it once and call Next.
	State uint64
}

// Next returns the next value of the sequence.
func (s *SplitMix64) Next() uint64 {
	s.State += 0x9E3779B97F4A7C15
	z := s.State
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Float64 returns a uniform float64 in the half-open interval (0, 1]. The
// closed upper end is deliberate: the geometric gap sampler takes log(u)
// and must never see u == 0.
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11+1) / (1 << 53)
}

// Intn returns a uniform integer in [0, n) for small n. It uses a plain
// modulus: for the operator menus drawn here (n = 3 and n = 15) the modulo
// bias is below 1e-18 and invisible next to Monte-Carlo noise.
func (s *SplitMix64) Intn(n int) int {
	return int(s.Next() % uint64(n))
}

// Seq returns the i-th output of the sequence beginning at s's current
// state, without advancing s: Seq(0) is what Next would return, Seq(1) the
// output after it, and so on. The adaptive estimator uses it to give every
// fixed-size sampling block a well-separated seed addressed by block index,
// so pooled results do not depend on which worker runs which block.
func (s SplitMix64) Seq(i uint64) uint64 {
	s.State += i * 0x9E3779B97F4A7C15
	return s.Next()
}

// BatchInjector supplies faults for the 64-lane batch engine. One call
// covers one fault location ("site") across all 64 lanes at once: the
// returned words carry one bit per lane, restricted to the lanes set in
// active (lanes outside active must never fault — they have terminated and
// the site does not exist on their execution path).
//
// Per-lane semantics match the scalar Injector exactly: each Draw advances
// every active lane by one location, in the engine's execution order, so a
// per-lane fault plan replayed through a BatchPlan hits the same locations
// as the same plan replayed through the scalar noise.Plan.
type BatchInjector interface {
	// Draw1Q returns the X and Z fault components after a preparation or
	// one-qubit gate: bit l of x (z) is set when lane l suffers a fault
	// with an X (Z) component; Y faults set both.
	Draw1Q(active uint64) (x, z uint64)

	// Draw2Q returns the fault components after a CNOT: x1/z1 apply to the
	// location's first qubit, x2/z2 to the second, mirroring Fault.P1/P2.
	Draw2Q(active uint64) (x1, z1, x2, z2 uint64)

	// DrawMeas returns the classical measurement-flip mask.
	DrawMeas(active uint64) (flip uint64)
}

// skipChain is one geometric skip-sampling stream over a flattened
// lane×site grid: cells are numbered site*64 + lane in the chain's own site
// order, each cell faults independently with probability p, and the gap
// between faulting cells is geometric — fault-free cells cost zero RNG calls
// and zero branches beyond one comparison per site. A uniform model runs a
// single chain over the global site grid (the legacy SparseSampler stream);
// a per-class model runs one chain per location class, each advancing only
// on its own class's sites, all drawing gaps from the sampler's one shared
// SplitMix64 stream.
type skipChain struct {
	tab  *skipTable // gap table of the chain's rate; nil when p == 0
	base uint64     // cell index where the chain's next site starts
	next uint64     // absolute cell index of the chain's next faulting cell
}

// init (re)starts the chain at cell 0, drawing its first skip from rng; a
// zero-rate chain never fires and draws nothing.
func (c *skipChain) init(rng *SplitMix64) {
	c.base = 0
	if c.tab == nil {
		c.next = math.MaxUint64
		return
	}
	c.next = geomSkip(rng, c.tab) // cell 0 itself faults with probability p
}

// site advances the chain by one site (64 cells) and reports the faulted
// lanes via the visit callback.
func (c *skipChain) site(rng *SplitMix64, active uint64, visit func(lane uint)) {
	base := c.base
	c.base += 64
	for c.next < c.base {
		lane := uint(c.next - base)
		c.next += 1 + geomSkip(rng, c.tab)
		if active>>lane&1 == 1 {
			visit(lane)
		}
	}
}

// chainLayout maps a model's location classes onto independent fault
// chains: a uniform-rate model is one chain that every LocKind maps to (the
// legacy single-rate stream), any other model one chain per class. Both the
// skip-sampling and the conditional samplers lay their chains out this way.
type chainLayout struct {
	nch  int           // live chains: 1 (uniform) or 3 (per class)
	cls  [3]uint8      // LocKind -> chain index
	rate [3]float64    // per-chain fault probability
	tab  [3]*skipTable // per-chain gap table; nil for a zero-rate chain
}

// layoutOf returns the chain layout of model m, with each faultable
// chain's gap table taken from sk (nil builds private tables).
func layoutOf(m Model, sk *Skips) chainLayout {
	l := chainLayout{nch: 3, cls: [3]uint8{0, 1, 2}, rate: [3]float64{m.P1Q, m.P2Q, m.PMeas}}
	if p, ok := m.UniformRate(); ok {
		l = chainLayout{nch: 1, rate: [3]float64{p}}
	}
	for c := 0; c < l.nch; c++ {
		if l.rate[c] > 0 {
			l.tab[c] = sk.table(l.rate[c])
		}
	}
	return l
}

// laneFaults gathers faults drawn lane by lane into the batch words of
// BatchInjector: bit l of x1/z1 (x2/z2) carries the X/Z component of lane
// l's fault on the location's first (second) qubit.
type laneFaults struct{ x1, z1, x2, z2 uint64 }

// add ORs fault f into lane's bit of the words.
func (w *laneFaults) add(lane uint, f Fault) {
	w.x1 |= uint64(f.P1&1) << lane
	w.z1 |= uint64(f.P1>>1&1) << lane
	w.x2 |= uint64(f.P2&1) << lane
	w.z2 |= uint64(f.P2>>1&1) << lane
}

// SparseSampler is the depolarizing model vectorized for the batch engine:
// instead of rolling the RNG once per lane per site (64 calls where the
// scalar engine makes one), it skip-samples flattened lane×site grids
// geometrically (see skipChain). A uniform model uses one chain over the
// global grid — exactly the legacy single-rate stream; a per-class model
// gives every location class its own chain over that class's sites, so
// skip-sampling stays one comparison per clean site per class.
//
// Faults landing on inactive lanes are discarded (thinning), which keeps
// the per-lane marginal exactly Bernoulli(p_class) per location regardless
// of how control flow diverged. A SparseSampler is not safe for concurrent
// use; give each worker its own, seeded from a SplitMix64 stream.
type SparseSampler struct {
	// P is the one-qubit-class physical fault probability — for a uniform
	// model, the single rate of every location.
	P float64

	rng   SplitMix64
	lay   chainLayout
	ch    [3]skipChain
	menus menuSet
}

// NewSparseSampler returns a sampler for the uniform physical rate p (in
// [0, 1)) whose RNG stream is seeded with seed, over a private gap table.
func NewSparseSampler(p float64, seed uint64) *SparseSampler {
	return NewSparseSamplerModel(Uniform(p), seed, nil)
}

// NewSparseSamplerModel returns a sampler for a per-class noise model. A
// model with one shared class rate runs the legacy single-chain grid (and
// with Eta == 1 is bit-identical to NewSparseSampler(p, seed)); distinct
// rates run one skip chain per class, initialized and drawn in fixed
// (Loc1Q, Loc2Q, LocMeas) order from the shared RNG stream. Each chain's
// gap table comes from sk, or is built for this sampler alone when sk is
// nil; the stream is the same either way.
func NewSparseSamplerModel(m Model, seed uint64, sk *Skips) *SparseSampler {
	s := &SparseSampler{P: m.P1Q, lay: layoutOf(m, sk), menus: newMenuSet(m.Eta)}
	for i := range s.ch {
		s.ch[i].tab = s.lay.tab[i]
	}
	s.Reseed(seed)
	return s
}

// Reseed restarts the sampler's RNG stream at seed and resynchronizes every
// chain's geometric skip state, as if freshly constructed with the same
// model; the adaptive estimator uses it to re-key a worker's sampler to each
// deterministic sampling block without reallocating.
func (s *SparseSampler) Reseed(seed uint64) {
	s.rng.State = seed
	for i := 0; i < s.lay.nch; i++ {
		s.ch[i].init(&s.rng)
	}
}

// Draw1Q implements BatchInjector: uniform {X, Y, Z} on faulted lanes.
func (s *SparseSampler) Draw1Q(active uint64) (x, z uint64) {
	var w laneFaults
	mn := &s.menus[Loc1Q]
	s.ch[s.lay.cls[Loc1Q]].site(&s.rng, active, func(lane uint) {
		w.add(lane, mn.draw(&s.rng))
	})
	return w.x1, w.z1
}

// Draw2Q implements BatchInjector: the model's two-qubit menu — uniform
// over the 15 non-identity two-qubit Paulis at Eta == 1, Z-biased otherwise
// — on faulted lanes.
func (s *SparseSampler) Draw2Q(active uint64) (x1, z1, x2, z2 uint64) {
	var w laneFaults
	mn := &s.menus[Loc2Q]
	s.ch[s.lay.cls[Loc2Q]].site(&s.rng, active, func(lane uint) {
		w.add(lane, mn.draw(&s.rng))
	})
	return w.x1, w.z1, w.x2, w.z2
}

// DrawMeas implements BatchInjector: a classical flip on faulted lanes.
func (s *SparseSampler) DrawMeas(active uint64) (flip uint64) {
	s.ch[s.lay.cls[LocMeas]].site(&s.rng, active, func(lane uint) {
		flip |= 1 << lane
	})
	return
}

// BatchPlan replays explicit per-lane fault plans through the batch engine,
// the vectorized twin of Plan: lane l's faults are keyed by that lane's own
// location index, which advances only while the lane is active — exactly
// the location numbering the scalar executor would see for the same lane.
//
// Each lane keeps its faults sorted by location with a cursor on the next
// one, so a draw costs one counter compare per active lane that still has a
// fault ahead, and a lane whose plan is spent costs nothing. A plan is
// reusable: fill it with Set, run one word, and Reset it for the next. The
// stratified fault-order estimator evaluates its fault sets 64 per word
// through one plan, and the fixed-fault-mask cross-check pins the batch
// engine to the scalar one lane by lane with it.
type BatchPlan struct {
	lanes   [64][]plannedFault // per-lane faults, sorted by location
	ctr     [64]int32          // locations executed per lane
	cur     [64]int32          // index of each lane's next planned fault
	next    [64]int32          // location of that fault
	pending uint64             // lanes with a planned fault still ahead
}

// plannedFault is one entry of a lane's plan.
type plannedFault struct {
	loc int32
	f   Fault
}

// NewBatchPlan builds a plan from a lane -> (location -> fault) map; lanes
// outside [0, 64) are ignored.
func NewBatchPlan(lanes map[int]map[int]Fault) *BatchPlan {
	p := &BatchPlan{}
	for lane, plan := range lanes {
		if lane >= 0 && lane < 64 {
			for loc, f := range plan {
				p.Set(lane, loc, f)
			}
		}
	}
	return p
}

// Reset empties every lane's plan and rewinds its location counter, keeping
// the lists' storage, so refilling the plan does not allocate.
func (p *BatchPlan) Reset() {
	for l := range p.lanes {
		p.lanes[l] = p.lanes[l][:0]
	}
	p.ctr = [64]int32{}
	p.cur = [64]int32{}
	p.pending = 0
}

// Set plans fault f at location loc of lane's execution path (lane in
// [0, 64)), replacing any fault already planned there, as assigning into
// Plan's map would. Plans are filled before the run that replays them.
func (p *BatchPlan) Set(lane, loc int, f Fault) {
	fs := p.lanes[lane]
	at := int32(loc)
	i := len(fs)
	for i > 0 && fs[i-1].loc >= at {
		i--
	}
	if i < len(fs) && fs[i].loc == at {
		fs[i].f = f
		return
	}
	fs = append(fs, plannedFault{})
	copy(fs[i+1:], fs[i:])
	fs[i] = plannedFault{loc: at, f: f}
	p.lanes[lane] = fs
	p.next[lane] = fs[0].loc
	p.pending |= 1 << uint(lane)
}

// Lane returns lane's plan as a scalar injector for the interpreted
// executor (allocating; the fallback for protocols past the batch engine's
// packing limits).
func (p *BatchPlan) Lane(lane int) *Plan {
	faults := make(map[int]Fault, len(p.lanes[lane]))
	for _, pf := range p.lanes[lane] {
		faults[int(pf.loc)] = pf.f
	}
	return NewPlan(faults)
}

// draw advances every active lane that still has a fault ahead by one
// location and reports the planned fault, if any, for each.
func (p *BatchPlan) draw(active uint64, visit func(lane uint, f Fault)) {
	for a := active & p.pending; a != 0; a &= a - 1 {
		lane := uint(bits.TrailingZeros64(a))
		loc := p.ctr[lane]
		p.ctr[lane] = loc + 1
		if loc != p.next[lane] {
			continue
		}
		fs := p.lanes[lane]
		c := p.cur[lane] + 1
		p.cur[lane] = c
		if int(c) < len(fs) {
			p.next[lane] = fs[c].loc
		} else {
			p.pending &^= 1 << lane
		}
		if f := fs[c-1].f; !f.IsTrivial() {
			visit(lane, f)
		}
	}
}

// Draw1Q implements BatchInjector.
func (p *BatchPlan) Draw1Q(active uint64) (x, z uint64) {
	var w laneFaults
	p.draw(active, w.add)
	return w.x1, w.z1
}

// Draw2Q implements BatchInjector.
func (p *BatchPlan) Draw2Q(active uint64) (x1, z1, x2, z2 uint64) {
	var w laneFaults
	p.draw(active, w.add)
	return w.x1, w.z1, w.x2, w.z2
}

// DrawMeas implements BatchInjector.
func (p *BatchPlan) DrawMeas(active uint64) (flip uint64) {
	p.draw(active, func(lane uint, f Fault) {
		if f.Flip {
			flip |= 1 << lane
		}
	})
	return
}
