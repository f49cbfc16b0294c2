package noise

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// This file keeps the K >= 2 law's inversions as they were before the guide
// table and the closed-form start — refPairs, with the law it reads built
// by newRefPairLaw — as the reference the shipped law must match schedule
// for schedule (CheckPairs, TestPairsMatchReference) and draw for draw
// (FuzzPairLaw).

// refPairLaw is the reference K >= 2 law: the first-fault CDF over the
// table's entries, each entry's suffix probability and the per-kind
// survival exponents.
type refPairLaw struct {
	tab *Singles
	cdf []float64
	z   []float64
	lg  [3]float64
}

// refPathKind returns the kind of location i of a trajectory from its
// per-kind prefix counts.
func refPathKind(pfx [][3]uint32, i uint32) LocKind {
	for k := LocKind(0); k < 2; k++ {
		if i == 0 && pfx[0][k] == 1 || i > 0 && pfx[i][k] != pfx[i-1][k] {
			return k
		}
	}
	return LocMeas
}

// refTerms computes every single fault's first-fault term under m, storing
// the running sums into cdf and each fault's suffix probability into z, and
// returns the per-kind exponents and the total P(K >= 2).
func refTerms(t *Singles, m Model, cdf, z []float64) (lg [3]float64, sum float64) {
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	for k, p := range rates {
		lg[k] = math.Log1p(-p)
	}
	ms := newMenuSet(m.Eta)
	for i, f := range t.faults {
		pfx := t.paths[f.path]
		kind := refPathKind(pfx, f.loc)
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

// newRefPairLaw builds the reference law of model m over the table and
// returns it with P(K >= 2).
func newRefPairLaw(m Model, tab *Singles) (*refPairLaw, float64) {
	pl := &refPairLaw{tab: tab, cdf: make([]float64, len(tab.faults)), z: make([]float64, len(tab.faults))}
	var sum float64
	pl.lg, sum = refTerms(tab, m, pl.cdf, pl.z)
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

// refAt is the reference continuation: from plus one geometric skip,
// saturating to noFault past the uint32 range, with no reach.
func refAt(l *condLaw, rng *SplitMix64, c int, from uint32) uint32 {
	nxt := uint64(from) + geomSkip(rng, l.tab[c])
	if nxt >= uint64(noFault) {
		return noFault
	}
	return uint32(nxt)
}

// refSecond is the reference second-fault inversion: bisection over the
// suffix of entry i for the uniform u.
func refSecond(pl *refPairLaw, i int, u float64) uint32 {
	f := pl.tab.faults[i]
	pfx := pl.tab.paths[f.path]
	j := f.loc
	last := uint32(len(pfx) - 1)
	base := pfx[j]
	surv := func(s uint32) float64 {
		c := pfx[s]
		for k := range c {
			c[k] -= base[k]
		}
		return logSurv(c, &pl.lg)
	}
	tgt := math.Log1p(-u * pl.z[i])
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
	return lo
}

// refPairs draws one shot's schedule under the reference law, consuming
// the RNG stream exactly as the shipped law must.
func refPairs(l *condLaw, pl *refPairLaw, rng *SplitMix64) schedule {
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
	sc.op = OpsFor(refPathKind(pfx, j))[f.oi]
	cj := int(l.cls[refPathKind(pfx, j)])
	cs := int(l.cls[refPathKind(pfx, s)])
	for c := 0; c < l.nch; c++ {
		if c != cs && l.tab[c] != nil {
			sc.next[c] = refAt(l, rng, c, l.chainPos(pfx[s], c))
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

// CheckPairs draws n K >= 2 schedules of model m over the table from the
// stream seeded seed, through the shipped law and through refPairs on a
// copy of the stream, and reports the first difference: in P(K >= 2), the
// first-fault CDF, a schedule, or the RNG position after it. A reference
// location at or past the table's Reach reads as noFault, which is what the
// shipped law schedules there; no shot reaches either.
func CheckPairs(tab *Singles, m Model, seed uint64, n int) error {
	law := newCondLaw2(m, tab, nil)
	ref, sum := newRefPairLaw(m, tab)
	if law.condP != sum {
		return fmt.Errorf("P(K >= 2) = %v, reference %v", law.condP, sum)
	}
	for i, c := range ref.cdf {
		if law.pair.cdf[i] != c {
			return fmt.Errorf("cdf[%d] = %v, reference %v", i, law.pair.cdf[i], c)
		}
	}
	clip := func(v uint32) uint32 {
		if uint64(v) >= law.reach {
			return noFault
		}
		return v
	}
	a, b := SplitMix64{State: seed}, SplitMix64{State: seed}
	for k := 0; k < n; k++ {
		got, want := law.pairs(&a), refPairs(&law, ref, &b)
		for c := range want.next {
			want.next[c] = clip(want.next[c])
			if want.hasThen>>c&1 == 1 {
				want.then[c] = clip(want.then[c])
			}
		}
		if got != want || a != b {
			return fmt.Errorf("schedule %d: got %+v (rng %#x), reference %+v (rng %#x)", k, got, a.State, want, b.State)
		}
	}
	return nil
}

// TestPairFirstBucketEdges covers the one case the guide walk steps down
// for: a uniform u one ulp below a bucket edge b/n whose product u·n rounds
// up to b, with a CDF entry equal to u. The bucket starts past that entry,
// and first must still return it, as searchCDF does.
func TestPairFirstBucketEdges(t *testing.T) {
	cases := 0
	for n := 2; n <= 300; n++ {
		for b := 1; b < n; b++ {
			u := math.Nextafter(float64(b)/float64(n), 0)
			if int(u*float64(n)) != b {
				continue
			}
			cdf := make([]float64, n)
			for k := range cdf {
				cdf[k] = float64(k+1) / float64(n)
			}
			cdf[b-1] = u
			pl := &pairLaw{cdf: cdf, guide: newGuide(cdf)}
			if got, want := pl.first(u), searchCDF(cdf, u); got != want || want != b-1 {
				t.Fatalf("n=%d u=%v: first %d, searchCDF %d, want %d", n, u, got, want, b-1)
			}
			cases++
		}
	}
	if cases == 0 {
		t.Fatal("no bucket edge where u·n rounds up")
	}
}

// FuzzPairLaw holds the shipped law's inversions to the reference on
// random single-fault tables: a fault-free path of n random kinds whose
// single faults stop early, end with it, or run on through a random tail,
// under a uniform or per-class model with rates from 1/2 down to about
// 1e-13. Its first-fault CDF and P(K >= 2) must equal the reference's
// exactly; first must equal searchCDF at the fuzzed u, at u = 1 and 2^-53,
// at every guide bucket edge b/g and one ulp either side, and at every CDF
// entry and one ulp either side; and second must equal the reference
// bisection for every entry with mass at the fuzzed u, at u = 1, 1/2,
// 2^-53 and 1 - 2^-53, and at every u whose target lands exactly on a
// suffix location's exponent and one ulp either side.
func FuzzPairLaw(f *testing.F) {
	f.Add(uint64(1)<<60, uint64(1)<<61, uint64(1)<<59, uint64(1)<<62, uint64(1), 40, 0.5, true)
	f.Add(uint64(1)<<58, uint64(1)<<60, uint64(1)<<56, uint64(1)<<63, uint64(2), 120, 1.0, false)
	f.Add(^uint64(0), uint64(1)<<40, uint64(1)<<59, uint64(0), uint64(3), 2, 0x1p-53, true)
	f.Add(uint64(0), uint64(1)<<62, uint64(0), uint64(1)<<61, uint64(4), 60, 0.999999, false)
	f.Add(uint64(1)<<50, uint64(1)<<50, uint64(1)<<62, ^uint64(0), uint64(5), 200, 0.25, true)
	f.Fuzz(func(t *testing.T, p1Raw, p2Raw, pmRaw, etaRaw, pathSeed uint64, n int, u float64, uniform bool) {
		if n < 1 || n > 200 {
			return
		}
		rate := func(raw uint64) float64 { return math.Exp(-30*rawRate(raw)) / 2 }
		m := Model{P1Q: rate(p1Raw), P2Q: rate(p2Raw), PMeas: rate(pmRaw), Eta: 0.1 + 10*rawRate(etaRaw)}
		if uniform {
			m = Uniform(m.P1Q)
		}
		ctl := SplitMix64{State: pathSeed}
		sites := make([]LocKind, n+n/2+1)
		for i := range sites {
			sites[i] = LocKind(ctl.Next() % 3)
		}
		tab := &Singles{}
		for j, k := range sites[:n] {
			for oi := range OpsFor(k) {
				end := n
				switch v := ctl.Next(); v % 3 {
				case 1:
					end = len(sites)
				case 2:
					end = j + 1 + int(v>>8%uint64(n-j))
				}
				tab.Add(j, oi, sites[:end], false)
			}
		}
		pl := newPairLaw(m, tab)
		ref, sum := newRefPairLaw(m, tab)
		if pl.condP != sum {
			t.Fatalf("%+v: P(K >= 2) = %v, reference %v", m, pl.condP, sum)
		}
		if !slices.Equal(pl.cdf, ref.cdf) {
			t.Fatalf("%+v: first-fault CDF differs from the reference", m)
		}
		if sum <= 0 {
			return // never sampled
		}
		us := []float64{u, 1, 0x1p-53}
		g := float64(len(pl.guide))
		for b := range pl.guide {
			e := float64(b) / g
			us = append(us, math.Nextafter(e, 0), e, math.Nextafter(e, 2))
		}
		for _, c := range pl.cdf {
			us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 2))
		}
		for _, v := range us {
			if !(v > 0 && v <= 1) {
				continue
			}
			if got, want := pl.first(v), searchCDF(ref.cdf, v); got != want {
				t.Fatalf("%+v u=%v: first fault %d, searchCDF %d", m, v, got, want)
			}
		}
		prev := 0.0
		for i, c := range ref.cdf {
			if c <= prev {
				continue // no mass: never drawn
			}
			prev = c
			// Besides fixed points, the u at which the target crosses each
			// suffix location's exact exponent, and one ulp either side:
			// where the closed-form start can be off by one.
			vs := []float64{u, 1, 0.5, 0x1p-53, 1 - 0x1p-53}
			e := tab.faults[i]
			for n := 1; n <= len(tab.paths[e.path])-1-int(e.loc); n++ {
				x := -math.Expm1(float64(n)*ref.lg[0]) / ref.z[i]
				vs = append(vs, math.Nextafter(x, 0), x, math.Nextafter(x, 2))
			}
			for _, v := range vs {
				if !(v > 0 && v <= 1) {
					continue
				}
				if got, want := pl.second(i, v), refSecond(ref, i, v); got != want {
					t.Fatalf("%+v entry %d u=%v: second fault %d, reference %d", m, i, v, got, want)
				}
			}
		}
	})
}
