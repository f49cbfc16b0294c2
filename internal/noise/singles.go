package noise

import "math"

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
// location-kind sequence as per-kind prefix counts, which is all the K >= 2
// law needs: a location's class-local index on a chain is the number of
// that chain's locations before it. The table is model-independent; build
// it once per protocol and share it read-only.
type Singles struct {
	// N is the fault-free path length: one past the largest location added.
	N int

	paths  [][][3]uint32  // pfx[i][k]: kind-k locations among trajectory locations [0..i]
	faults []single       // in Add order
	index  map[string]int // location-kind sequence -> paths index
	key    []byte         // scratch for the index lookup
	fails  int
}

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
func (t *Singles) CondProb(m Model) float64 {
	_, sum := t.terms(m, nil, nil)
	return sum
}

// pathKind returns the kind of location i of a trajectory.
func pathKind(pfx [][3]uint32, i uint32) LocKind {
	for k := LocKind(0); k < 2; k++ {
		if i == 0 && pfx[0][k] == 1 || i > 0 && pfx[i][k] != pfx[i-1][k] {
			return k
		}
	}
	return LocMeas
}

// logSurv returns the log-probability that no location counted by the
// per-kind counts c faults, for per-kind log1p(-p) exponents lg.
func logSurv(c [3]uint32, lg *[3]float64) float64 {
	return float64(c[0])*lg[0] + float64(c[1])*lg[1] + float64(c[2])*lg[2]
}

// terms computes every single fault's first-fault term under m, storing the
// running sums into cdf and each fault's suffix probability
// 1 - prod_c (1-p_c)^L_c into z when they are non-nil, and returns the
// per-kind exponents and the total P(K >= 2).
func (t *Singles) terms(m Model, cdf, z []float64) (lg [3]float64, sum float64) {
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	for k, p := range rates {
		lg[k] = math.Log1p(-p)
	}
	ms := newMenuSet(m.Eta)
	for i, f := range t.faults {
		pfx := t.paths[f.path]
		kind := pathKind(pfx, f.loc)
		before, after := pfx[f.loc], pfx[len(pfx)-1]
		for k := range after {
			after[k] -= before[k]
		}
		before[kind]--
		zi := -math.Expm1(logSurv(after, &lg))
		sum += math.Exp(logSurv(before, &lg)) * rates[kind] * ms[kind].weight(int(f.oi)) * zi
		if cdf != nil {
			cdf[i] = sum
			z[i] = zi
		}
	}
	return lg, sum
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

// pairLaw is the K >= 2 part of a condLaw: the single-fault table, the
// first-fault CDF over its entries, each entry's suffix probability and the
// per-kind survival exponents.
type pairLaw struct {
	tab *Singles
	cdf []float64
	z   []float64
	lg  [3]float64
}

// newPairLaw builds the K >= 2 law of model m over the table and returns it
// with P(K >= 2). The caller guarantees P(K >= 2) > 0.
func newPairLaw(m Model, tab *Singles) (*pairLaw, float64) {
	pl := &pairLaw{tab: tab, cdf: make([]float64, len(tab.faults)), z: make([]float64, len(tab.faults))}
	var sum float64
	pl.lg, sum = tab.terms(m, pl.cdf, pl.z)
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
	for i := last; i < len(pl.cdf); i++ {
		pl.cdf[i] = 1
	}
	return pl, sum
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

// pairs draws one shot's schedule under the K >= 2 law: one uniform against
// the first-fault CDF picks (j, op), one more inverts the second fault's law
// on T(j, op)'s suffix — the smallest suffix location i whose survival
// exponent reaches log(1 - u·z) — and every chain other than the second
// fault's draws its geometric continuation from its first location after
// the second fault, in chain order.
func (l *condLaw) pairs(rng *SplitMix64) schedule {
	pl := l.pair
	i := searchCDF(pl.cdf, rng.Float64())
	f := pl.tab.faults[i]
	pfx := pl.tab.paths[f.path]
	j := f.loc

	// Second fault: the survival exponent over (j, s] is non-increasing in
	// s. Clamp the target into [exponent of the whole suffix, below 0] so
	// rounding at u = 1 lands on the suffix's last faultable location and a
	// zero-rate location is never drawn.
	last := uint32(len(pfx) - 1)
	base := pfx[j]
	surv := func(s uint32) float64 {
		c := pfx[s]
		for k := range c {
			c[k] -= base[k]
		}
		return logSurv(c, &pl.lg)
	}
	tgt := math.Log1p(-rng.Float64() * pl.z[i])
	tgt = min(max(tgt, surv(last)), -math.SmallestNonzeroFloat64)
	lo, hi := j+1, last
	for lo < hi {
		mid := lo + (hi-lo)/2
		if surv(mid) <= tgt {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s := lo

	sc := schedule{next: [3]uint32{noFault, noFault, noFault}}
	sc.op = OpsFor(pathKind(pfx, j))[f.oi]
	cj := int(l.cls[pathKind(pfx, j)])
	cs := int(l.cls[pathKind(pfx, s)])
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
