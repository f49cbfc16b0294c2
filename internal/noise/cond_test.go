package noise

import (
	"math"
	"math/bits"
	"sync"
	"testing"
)

// TestCondProb pins the conditioning probability against direct evaluation
// and its exact boundary limits.
func TestCondProb(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{0, 0.3, 0},
		{5, 0, 0},
		{5, -0.1, 0},
		{5, 1, 1},
		{5, 1.5, 1},
		{1, 0.25, 0.25},
		{2, 0.5, 0.75},
		{3, 0.1, 1 - 0.9*0.9*0.9},
	}
	for _, c := range cases {
		got := condProb(c.n, c.p)
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("condProb(%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}

	// Tiny rates: the expm1/log1p form must track n·p to first order where
	// the naive 1-(1-p)^n collapses to 0 or loses all digits.
	for _, n := range []int{1, 21, 500} {
		p := 1e-12
		got := condProb(n, p)
		approx := float64(n) * p
		if got <= 0 || math.Abs(got-approx)/approx > 1e-6 {
			t.Errorf("condProb(%d, %g) = %g, want ~%g", n, p, got, approx)
		}
	}
}

// condDrawAll walks a CondSampler through n one-qubit sites with the given
// active mask and returns, per lane, the site index of the first fault (or
// -1) and the sampler's final fault tallies.
func condDrawAll(s *CondSampler, live uint64, n int) (first [64]int, faulted uint64) {
	for lane := range first {
		first[lane] = -1
	}
	for site := 0; site < n; site++ {
		x, z := s.Draw1Q(live)
		hit := x | z
		faulted |= hit
		for l := hit; l != 0; l &= l - 1 {
			lane := bits.TrailingZeros64(l)
			if first[lane] < 0 {
				first[lane] = site
			}
		}
	}
	return
}

// TestCondSamplerForcesFault is the defining property of the conditional
// sampler: within the N locations of the fault-free path, every live lane
// must fault at least once, and lanes outside the live mask must never
// fault.
func TestCondSamplerForcesFault(t *testing.T) {
	const n = 37
	const p = 1e-3 // small enough that unconditional words would be mostly fault-free
	s := NewCondSamplerModel(Uniform(p), make([]LocKind, n), 7, nil)
	live := uint64(0xF0F0_F0F0_F0F0_F0F0)
	for word := 0; word < 200; word++ {
		s.Reset(live)
		_, faulted := condDrawAll(s, ^uint64(0), n)
		if faulted&live != live {
			t.Fatalf("word %d: live lanes %016x missing forced faults (faulted %016x)", word, live, faulted)
		}
		if faulted&^live != 0 {
			t.Fatalf("word %d: dead lanes faulted: %016x", word, faulted&^live)
		}
		for lane := 0; lane < 64; lane++ {
			if live>>uint(lane)&1 == 1 && s.Faults[lane] == 0 {
				t.Fatalf("word %d: live lane %d has zero fault tally", word, lane)
			}
			if live>>uint(lane)&1 == 0 && s.Faults[lane] != 0 {
				t.Fatalf("word %d: dead lane %d has fault tally %d", word, lane, s.Faults[lane])
			}
		}
	}
}

// TestCondSamplerFirstFaultDistribution pins the forced first-fault location
// to the truncated geometric P(J = j | J < N) = (1-p)^j p / (1-(1-p)^N):
// per-site counts over many words must sit within 5 sigma of the expected
// multinomial cell counts.
func TestCondSamplerFirstFaultDistribution(t *testing.T) {
	const n = 6
	const p = 0.25
	const words = 2000 // 128k samples across 64 lanes
	s := NewCondSamplerModel(Uniform(p), make([]LocKind, n), 11, nil)
	var counts [n]int
	for w := 0; w < words; w++ {
		s.Reset(^uint64(0))
		first, _ := condDrawAll(s, ^uint64(0), n)
		for lane := 0; lane < 64; lane++ {
			if first[lane] < 0 {
				t.Fatalf("word %d lane %d never faulted", w, lane)
			}
			counts[first[lane]]++
		}
	}
	total := float64(words * 64)
	condP := condProb(n, p)
	for j := 0; j < n; j++ {
		q := math.Pow(1-p, float64(j)) * p / condP
		mean := total * q
		sd := math.Sqrt(total * q * (1 - q))
		if diff := math.Abs(float64(counts[j]) - mean); diff > 5*sd {
			t.Errorf("first-fault site %d: count %d, want %.0f ± %.0f (5σ)", j, counts[j], mean, 5*sd)
		}
	}
}

// TestCondSamplerTotalFaults checks the unconditional tail after the forced
// first fault: over a straight n-site walk the expected total fault count is
// E[1 + Binomial(n-1-J, p)] = 1 + p(n-1-E[J]), within 5 sigma.
func TestCondSamplerTotalFaults(t *testing.T) {
	const n = 40
	const p = 0.05
	const words = 1500
	s := NewCondSamplerModel(Uniform(p), make([]LocKind, n), 13, nil)
	condP := condProb(n, p)

	// E[J] for the truncated geometric.
	var ej float64
	for j := 0; j < n; j++ {
		ej += float64(j) * math.Pow(1-p, float64(j)) * p / condP
	}
	mean := 1 + p*(float64(n)-1-ej)

	var sum, sum2 float64
	for w := 0; w < words; w++ {
		s.Reset(^uint64(0))
		condDrawAll(s, ^uint64(0), n)
		for lane := 0; lane < 64; lane++ {
			k := float64(s.Faults[lane])
			sum += k
			sum2 += k * k
		}
	}
	total := float64(words * 64)
	got := sum / total
	variance := sum2/total - got*got
	sd := math.Sqrt(variance / total)
	if diff := math.Abs(got - mean); diff > 5*sd {
		t.Errorf("mean fault count %.4f, want %.4f ± %.4f (5σ)", got, mean, 5*sd)
	}
}

// TestCondInjectorMatchesSampler pins the scalar conditional injector to its
// batch twin: same forced-fault guarantee, and the mean total fault count
// over matched straight-line walks agrees within 5 sigma.
func TestCondInjectorMatchesSampler(t *testing.T) {
	const n = 30
	const p = 0.04
	const shots = 60_000

	cj := NewCondInjectorModel(Uniform(p), make([]LocKind, n), 17, nil)
	var sumS, sumS2 float64
	for s := 0; s < shots; s++ {
		cj.Reset()
		faults := 0
		for site := 0; site < n; site++ {
			if !cj.Next(Loc1Q).IsTrivial() {
				faults++
			}
		}
		if faults == 0 {
			t.Fatalf("shot %d: scalar conditional shot with zero faults", s)
		}
		if faults != cj.Faults {
			t.Fatalf("shot %d: observed %d faults, tally says %d", s, faults, cj.Faults)
		}
		sumS += float64(faults)
		sumS2 += float64(faults) * float64(faults)
	}

	bs := NewCondSamplerModel(Uniform(p), make([]LocKind, n), 19, nil)
	var sumB, sumB2 float64
	for w := 0; w < shots/64; w++ {
		bs.Reset(^uint64(0))
		condDrawAll(bs, ^uint64(0), n)
		for lane := 0; lane < 64; lane++ {
			k := float64(bs.Faults[lane])
			sumB += k
			sumB2 += k * k
		}
	}

	nS, nB := float64(shots), float64(shots/64*64)
	mS, mB := sumS/nS, sumB/nB
	vS, vB := sumS2/nS-mS*mS, sumB2/nB-mB*mB
	sd := math.Sqrt(vS/nS + vB/nB)
	if diff := math.Abs(mS - mB); diff > 5*sd {
		t.Errorf("scalar mean faults %.4f vs batch %.4f (diff > 5σ = %.4f)", mS, mB, 5*sd)
	}
}

// TestCondSamplerReseedDeterministic pins Reseed to full reproducibility:
// two samplers re-keyed to the same seed must produce identical draws.
func TestCondSamplerReseedDeterministic(t *testing.T) {
	const n = 25
	a := NewCondSamplerModel(Uniform(0.1), make([]LocKind, n), 1, nil)
	b := NewCondSamplerModel(Uniform(0.1), make([]LocKind, n), 2, nil)
	a.Reseed(42)
	b.Reseed(42)
	a.Reset(^uint64(0))
	b.Reset(^uint64(0))
	for site := 0; site < n; site++ {
		ax, az := a.Draw1Q(^uint64(0))
		bx, bz := b.Draw1Q(^uint64(0))
		if ax != bx || az != bz {
			t.Fatalf("site %d: reseeded samplers diverge", site)
		}
	}
	if a.Faults != b.Faults {
		t.Fatalf("reseeded samplers tally differently: %v vs %v", a.Faults, b.Faults)
	}
}

// TestSinglesLawCache checks the single-fault table's per-model K >= 2 law
// cache: one law per model, shared by CondProb and every sampler built on
// the table, also when built concurrently; a sampler holds the law by
// reference, not a copy; and past maxPairLaws models the cache starts over
// instead of growing.
func TestSinglesLawCache(t *testing.T) {
	path := []LocKind{Loc1Q, Loc2Q, Loc2Q, LocMeas, Loc1Q, Loc2Q}
	tab := &Singles{Reach: len(path) + 2}
	for j, k := range path {
		for oi := range OpsFor(k) {
			tab.Add(j, oi, append(path[:j+1:j+1], path[j:]...), false)
		}
	}
	m := Model{P1Q: 1e-3, P2Q: 2e-3, PMeas: 5e-4, Eta: 2}
	var wg sync.WaitGroup
	laws := make([]*pairLaw, 8)
	for i := range laws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			laws[i] = NewCondSampler2(m, tab, uint64(i), nil).law.pair
		}()
	}
	wg.Wait()
	for _, pl := range laws {
		if pl != laws[0] || pl != tab.law(m) {
			t.Fatal("samplers of one model must share the table's law")
		}
	}
	if got, want := tab.CondProb(m), laws[0].condP; got != want {
		t.Fatalf("CondProb %v, cached law %v", got, want)
	}
	if c := NewCondInjector2(m, tab, 1, nil); c.law.pair != laws[0] || c.law.reach != uint64(tab.Reach) {
		t.Fatal("the scalar injector must share the law and carry the table's reach")
	}
	if tab.law(Uniform(1e-3)) == laws[0] {
		t.Fatal("distinct models must get distinct laws")
	}
	for i := 0; i <= 2*maxPairLaws; i++ {
		tab.law(Uniform(float64(i+1) * 1e-4))
		if len(tab.laws) > maxPairLaws {
			t.Fatalf("cache holds %d laws, want at most %d", len(tab.laws), maxPairLaws)
		}
	}
}

// TestLaneClockMatchesCounters holds the batch sampler's per-chain
// calendar to the per-lane location counters it replaces: under random
// activity — every lane, all but a few, single lanes, random masks, sparse
// masks, each in runs of 100 draws or mixed — and random reschedules near,
// past the slot ring and never again, each step
// must fire exactly the active pending lanes whose counter has reached
// their next fault.
func TestLaneClockMatchesCounters(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := SplitMix64{State: seed}
		var k laneClock
		var cnt, next [64]uint32
		var pending uint64
		dist := func() uint32 {
			switch rng.Next() % 4 {
			case 0:
				return uint32(rng.Next() % 4)
			case 1:
				return uint32(rng.Next() % (2 * ring))
			case 2:
				return uint32(ring - 2 + rng.Next()%4)
			default:
				return uint32(rng.Next() % 2000)
			}
		}
		for word := 0; word < 4; word++ {
			k.reset()
			pending, cnt = 0, [64]uint32{}
			for lane := 0; lane < 64; lane++ {
				if rng.Next()%8 == 0 {
					continue
				}
				next[lane] = dist()
				pending |= 1 << lane
				k.plan(lane, next[lane], uint64(next[lane]))
			}
			style := uint64(0)
			for step := 0; step < 1500; step++ {
				if step%100 == 0 {
					style = rng.Next() % 6 // 5: a new style every step
				}
				pick := style
				if pick == 5 {
					pick = rng.Next() % 5
				}
				var active uint64
				switch pick {
				case 0:
					active = ^uint64(0)
				case 1:
					active = ^uint64(0) &^ (1 << (rng.Next() % 64)) &^ (1 << (rng.Next() % 64))
				case 2:
					active = 1 << (rng.Next() % 64)
				case 3:
					active = rng.Next()
				default:
					active = rng.Next() & rng.Next() // fewer advance than sit out
				}
				var want uint64
				for a := active & pending; a != 0; a &= a - 1 {
					lane := bits.TrailingZeros64(a)
					if cnt[lane] == next[lane] {
						want |= 1 << lane
					}
					cnt[lane]++
				}
				got := k.step(active)
				if got != want {
					t.Fatalf("seed %d word %d step %d: fired %016x, counters fire %016x", seed, word, step, got, want)
				}
				for f := got; f != 0; f &= f - 1 {
					lane := bits.TrailingZeros64(f)
					loc := next[lane]
					if rng.Next()%5 == 0 {
						pending &^= 1 << lane
						k.plan(lane, noFault, 0)
						continue
					}
					next[lane] = loc + 1 + dist()
					k.plan(lane, next[lane], uint64(next[lane]-loc-1))
				}
			}
		}
	}
}
