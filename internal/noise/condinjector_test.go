package noise

// CondInjector is the scalar twin of CondSampler: one shot per Reset, the
// same exact conditional law drawn through the same schedule with no lane
// bookkeeping. It is the reference the tests hold the batch sampler to.
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
