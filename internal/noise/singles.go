package noise

import (
	"math"
	"sync"
)

// This file adds the exact K >= 2 conditional law to the rare-event
// samplers. The executor is deterministic given its faults, so a single
// fault (j, op) on the fault-free path forces one fixed trajectory T(j, op):
// the fault-free path through location j, then whatever the fault makes the
// protocol run — the rest of the fault-free path, a correction branch, or an
// early stop. A shot holds at least two faults exactly when its first fault
// is some (j, op) and a second fault lands on T(j, op) after j, so
//
//	P(K >= 2) = sum over (j, op) of
//	            P(no fault before j) · p_{k_j} · w(op) · (1 - prod_c (1-p_c)^L_c(j, op)),
//
// where L_c(j, op) counts the class-c locations of T(j, op) after j. The
// law draws the first fault (j, op) from these terms, the second fault from
// the first-fault law restricted to T(j, op)'s suffix, and continues every
// chain with plain geometric gaps from its class-local position after the
// second fault, exactly as the K >= 1 law continues after its first.
//
// Conditioning on ">= 2 faults among the N fault-free-path locations"
// instead would be biased: a faulted shot can run correction-branch
// locations past N, and pairs whose second fault sits there carry a large
// share of the p² failure mass.

// Singles is the single-fault table of a protocol: every single fault
// (j, op) on the fault-free path — every operator of every location, added
// in location/operator order — with the verdict of the shot it causes and
// the trajectory it forces. Trajectories are stored once per distinct
// location-kind sequence, as the kind of each location and per-kind prefix
// counts, which is all the K >= 2 law needs: a location's class-local index
// on a chain is the number of that chain's locations before it.
//
// The table itself is model-independent. Build it once per protocol with
// Add, then share it: from then on a Singles is safe for concurrent use. It
// caches the K >= 2 law of each model it has been asked for (CondProb,
// NewCondSampler2, NewCondInjector2), at most maxPairLaws of them before
// the cache starts over, so every sampler over one protocol and model
// shares one read-only law.
type Singles struct {
	// N is the fault-free path length: one past the largest location added.
	N int

	// Reach is an upper bound on the locations any shot of the protocol
	// executes, whatever its faults, or 0 when no bound is known. The K >= 2
	// law schedules no continuation fault at or past it (condLaw.at): such a
	// fault could never fire. Set it before the table is shared.
	Reach int

	paths  [][][3]uint32  // paths[p][i][k]: kind-k locations among trajectory p's locations [0..i]
	kinds  [][]LocKind    // kinds[p][i]: the kind of trajectory p's location i
	faults []single       // in Add order
	index  map[string]int // location-kind sequence -> paths index
	key    []byte         // scratch for the index lookup
	fails  int

	mu   sync.Mutex
	laws map[Model]*pairLaw
}

// maxPairLaws bounds a Singles' law cache: past it the cache starts over,
// so a caller that sweeps many distinct models over one protocol cannot
// grow it without limit.
const maxPairLaws = 32

// single is one table entry: the fault's location on the fault-free path,
// its operator (index oi into OpsFor of the location's kind) and the
// trajectory it forces.
type single struct {
	loc  uint32
	path uint32
	oi   uint8
}

// Add records the single fault with operator OpsFor(kinds[loc])[oi] at
// fault-free-path location loc: kinds are the location kinds of the whole
// trajectory the fault forces, from location 0 to the end of the shot, and
// fail is the shot's verdict. kinds[:loc+1] is the fault-free path through
// the fault.
func (t *Singles) Add(loc, oi int, kinds []LocKind, fail bool) {
	if t.index == nil {
		t.index = map[string]int{}
	}
	t.key = t.key[:0]
	for _, k := range kinds {
		t.key = append(t.key, byte(k))
	}
	id, ok := t.index[string(t.key)]
	if !ok {
		pfx := make([][3]uint32, len(kinds))
		var c [3]uint32
		for i, k := range kinds {
			c[k]++
			pfx[i] = c
		}
		id = len(t.paths)
		t.paths = append(t.paths, pfx)
		t.kinds = append(t.kinds, append([]LocKind(nil), kinds...))
		t.index[string(t.key)] = id
	}
	t.faults = append(t.faults, single{loc: uint32(loc), path: uint32(id), oi: uint8(oi)})
	if fail {
		t.fails++
	}
	t.N = max(t.N, loc+1)
}

// Pass reports whether no single fault fails — the condition under which a
// failing shot holds at least two faults, so P(fail) = P(K >= 2)·P(fail |
// K >= 2) exactly.
func (t *Singles) Pass() bool { return t.fails == 0 }

// CondProb returns P(#faults >= 2) under model m: the sum of the first-fault
// terms above, each computed from log1p/expm1 survival exponents so it stays
// accurate at tiny rates (it is never formed as P(K >= 1) - P(K = 1), which
// cancels catastrophically). Every class rate must lie in [0, 1).
func (t *Singles) CondProb(m Model) float64 { return t.law(m).condP }

// law returns the K >= 2 law of model m over the table, building and
// caching it on first use.
func (t *Singles) law(m Model) *pairLaw {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pl := t.laws[m]; pl != nil {
		return pl
	}
	if t.laws == nil || len(t.laws) >= maxPairLaws {
		t.laws = make(map[Model]*pairLaw)
	}
	pl := newPairLaw(m, t)
	t.laws[m] = pl
	return pl
}

// logSurv returns the log-probability that no location counted by the
// per-kind counts c faults, for per-kind log1p(-p) exponents lg.
func logSurv(c [3]uint32, lg *[3]float64) float64 {
	return float64(c[0])*lg[0] + float64(c[1])*lg[1] + float64(c[2])*lg[2]
}

// weight returns the probability of the menu's i-th operator.
func (mn *menu) weight(i int) float64 {
	if mn.cum == nil {
		return 1 / float64(len(mn.ops))
	}
	if i == 0 {
		return mn.cum[0]
	}
	return mn.cum[i] - mn.cum[i-1]
}

// pairLaw is the K >= 2 law of one model over a single-fault table: the
// first-fault CDF over the table's entries with a guide over it, each
// entry's suffix probability and whole-suffix survival exponent, the
// per-kind survival exponents and the model's operator menus. It is
// read-only once built and shared by every sampler of the model.
type pairLaw struct {
	tab     *Singles
	condP   float64 // P(K >= 2)
	lg      [3]float64
	uniform bool // one rate for every kind: lg[0] == lg[1] == lg[2]
	menus   menuSet

	cdf   []float64
	guide []uint32 // guide[b]: smallest index whose cdf reaches b/len(guide)
	ent   []pairEntry
}

// pairEntry is a table entry's second-fault data: its suffix probability
// z = 1 - prod_c (1-p_c)^L_c and the survival exponent of its whole suffix,
// log(1 - z) as the sum of per-kind terms.
type pairEntry struct {
	z, tail float64
}

// newPairLaw builds the K >= 2 law of model m over the table. Every class
// rate must lie in [0, 1); P(K >= 2) may be 0, in which case the law is
// never sampled.
func newPairLaw(m Model, tab *Singles) *pairLaw {
	n := len(tab.faults)
	pl := &pairLaw{tab: tab, menus: newMenuSet(m.Eta), cdf: make([]float64, n), ent: make([]pairEntry, n)}
	_, pl.uniform = m.UniformRate()
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	for k, p := range rates {
		pl.lg[k] = math.Log1p(-p)
	}
	// The first-fault term of every entry, accumulated into the CDF.
	var sum float64
	for i, f := range tab.faults {
		pfx := tab.paths[f.path]
		kind := tab.kinds[f.path][f.loc]
		before, after := pfx[f.loc], pfx[len(pfx)-1]
		for k := range after {
			after[k] -= before[k]
		}
		before[kind]--
		tail := logSurv(after, &pl.lg)
		z := -math.Expm1(tail)
		sum += math.Exp(logSurv(before, &pl.lg)) * rates[kind] * pl.menus[kind].weight(int(f.oi)) * z
		pl.cdf[i] = sum
		pl.ent[i] = pairEntry{z: z, tail: tail}
	}
	pl.condP = sum
	// Normalize by the accumulated mass and close the table at its last
	// positive entry, so the inversion can neither run off the end at
	// u = 1 nor land on a zero-mass entry.
	last, prev := 0, 0.0
	for i, c := range pl.cdf {
		if c > prev {
			last, prev = i, c
		}
		pl.cdf[i] = c / sum
	}
	for i := last; i < n; i++ {
		pl.cdf[i] = 1
	}
	pl.guide = newGuide(pl.cdf)
	return pl
}

// newGuide returns the guide over a non-decreasing CDF: one bucket per
// entry, bucket b holding the first entry whose value reaches b/len(cdf).
func newGuide(cdf []float64) []uint32 {
	n := len(cdf)
	guide := make([]uint32, n)
	i := 0
	for b := range guide {
		u := float64(b) / float64(n)
		for i < n-1 && cdf[i] < u {
			i++
		}
		guide[b] = uint32(i)
	}
	return guide
}

// first returns the table entry the first-fault uniform u in (0, 1]
// selects: the smallest index whose CDF reaches u, exactly as searchCDF
// finds it. The guide bucket of u gives the start; the walk then checks
// both sides — the entry's CDF reaches u and its predecessor's does not —
// so the answer holds even where u·n rounds onto a bucket edge.
func (pl *pairLaw) first(u float64) int {
	b := min(int(u*float64(len(pl.guide))), len(pl.guide)-1)
	i := int(pl.guide[b])
	for pl.cdf[i] < u {
		i++
	}
	for i > 0 && pl.cdf[i-1] >= u {
		i--
	}
	return i
}

// second returns the second fault's trajectory location for entry i and the
// uniform u in (0, 1]: the smallest suffix location s in (j, last] whose
// survival exponent over (j, s] reaches the target log(1 - u·z), with the
// target clamped into [whole-suffix exponent, below 0] so rounding at u = 1
// lands on the suffix's last faultable location and a zero-rate location is
// never drawn. The exponent is non-increasing in s in floating point, so
// this boundary is unique. A uniform model takes j + ceil(target/lg)
// when rounding cannot move the boundary off it, and steps from there to
// the boundary otherwise; a per-class model bisects.
func (pl *pairLaw) second(i int, u float64) uint32 {
	f := pl.tab.faults[i]
	pfx := pl.tab.paths[f.path]
	j, last := f.loc, uint32(len(pfx)-1)
	base := pfx[j]
	surv := func(s uint32) float64 {
		c := pfx[s]
		for k := range c {
			c[k] -= base[k]
		}
		return logSurv(c, &pl.lg)
	}
	e := pl.ent[i]
	tgt := math.Log1p(-u * e.z)
	tgt = min(max(tgt, e.tail), -math.SmallestNonzeroFloat64)
	if pl.uniform {
		// Every kind shares lg, so surv(s) is (s-j)·lg to within three
		// roundings of like-signed terms and x = tgt/lg is exact to within
		// one: relative errors below 2^-51 while lg is normal. Unless x
		// lies within 1e-12·x of an integer, the predicate therefore turns
		// exactly at j + ceil(x) — surv there is at most tgt, one location
		// before it is above tgt — and neither needs evaluating. A
		// subnormal or zero x needs no error bound: it starts at j+1, where
		// surv = lg lies below tgt. Otherwise step from that start to the
		// boundary.
		s := last
		if x := tgt / pl.lg[0]; x < float64(last-j) {
			n := math.Ceil(x)
			s = j + max(uint32(n), 1)
			if pl.lg[0] <= -0x1p-900 && n-x >= 1e-12*x && x-(n-1) >= 1e-12*x {
				return s
			}
		}
		for s < last && surv(s) > tgt {
			s++
		}
		for s > j+1 && surv(s-1) <= tgt {
			s--
		}
		return s
	}
	lo, hi := j+1, last
	for lo < hi {
		mid := lo + (hi-lo)/2
		if surv(mid) <= tgt {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// schedule is one shot's forced faults under the K >= 2 law: every chain's
// next fault, and for the chains in hasThen the fault after it; the first
// fault carries the table's operator op.
type schedule struct {
	next, then [3]uint32
	hasThen    uint8 // bit c: chain c has a then
	op         Fault
}

// chainPos returns the number of chain-c locations among the counted ones.
func (l *condLaw) chainPos(c [3]uint32, ch int) uint32 {
	if l.nch == 1 {
		return c[0] + c[1] + c[2]
	}
	return c[ch]
}

// pairs draws one shot's schedule under the K >= 2 law: one uniform picks
// the first fault (j, op) from the first-fault CDF, one more inverts the
// second fault's law on T(j, op)'s suffix, and every chain other than the
// second fault's draws its geometric continuation from its first location
// after the second fault, in chain order.
func (l *condLaw) pairs(rng *SplitMix64) schedule {
	pl := l.pair
	i := pl.first(rng.Float64())
	f := pl.tab.faults[i]
	pfx, kinds := pl.tab.paths[f.path], pl.tab.kinds[f.path]
	j := f.loc
	s := pl.second(i, rng.Float64())

	sc := schedule{next: [3]uint32{noFault, noFault, noFault}}
	sc.op = OpsFor(kinds[j])[f.oi]
	cj := int(l.cls[kinds[j]])
	cs := int(l.cls[kinds[s]])
	for c := 0; c < l.nch; c++ {
		if c != cs && l.tab[c] != nil {
			sc.next[c] = l.at(rng, c, l.chainPos(pfx[s], c))
		}
	}
	jpos, spos := l.chainPos(pfx[j], cj)-1, l.chainPos(pfx[s], cs)-1
	if cj == cs {
		sc.then[cj] = spos
	} else {
		sc.then[cj] = sc.next[cj]
		sc.next[cs] = spos
	}
	sc.next[cj] = jpos
	sc.hasThen = 1 << cj
	return sc
}

// searchCDF returns the smallest index whose cumulative value reaches u.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u <= cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
