package noise

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// FuzzSparseSampler locks down the geometric-skip sampler the rare-event
// conditional sampler reuses. For arbitrary (rate, seed, site count, active
// mask) inputs it checks the structural invariants — p = 0 faults nothing,
// p = 1 faults every active cell, faults never land outside the active
// mask — and that the realized fault count stays within a 5-sigma-plus-slack
// Chernoff-style envelope of the Binomial(sites·|active|, p) expectation.
// The seeded corpus runs as ordinary unit tests (including CI's short
// mode); `go test -fuzz=FuzzSparseSampler ./internal/noise` explores
// further.
func FuzzSparseSampler(f *testing.F) {
	f.Add(uint64(0), uint64(1), 100, ^uint64(0))                     // p = 0
	f.Add(^uint64(0), uint64(2), 100, ^uint64(0))                    // p -> 1
	f.Add(uint64(1)<<62, uint64(3), 200, ^uint64(0))                 // p = 0.125
	f.Add(uint64(1)<<52, uint64(4), 300, uint64(0xF0F0F0F0F0F0F0F0)) // tiny p, masked
	f.Add(uint64(1)<<61, uint64(5), 50, uint64(1))                   // single lane
	f.Add(uint64(1)<<63, uint64(6), 1, uint64(0))                    // no active lanes
	f.Add(uint64(3)<<62, uint64(7), 150, uint64(0x5555555555555555)) // p = 0.75, alternating

	f.Fuzz(func(t *testing.T, pRaw, seed uint64, sites int, active uint64) {
		if sites < 0 || sites > 2000 {
			return // keep each input cheap; larger site counts add nothing
		}
		// Map the raw word onto [0, 1] with both endpoints reachable.
		p := rawRate(pRaw)
		s := NewSparseSampler(p, seed)

		cells := sites * bits.OnesCount64(active)
		faults := 0
		for i := 0; i < sites; i++ {
			// Rotate across the three site kinds so the operator-menu
			// paths are all exercised.
			var hit uint64
			switch i % 3 {
			case 0:
				x, z := s.Draw1Q(active)
				if x&^active != 0 || z&^active != 0 {
					t.Fatalf("site %d: 1Q fault outside active mask %016x: x=%016x z=%016x", i, active, x, z)
				}
				hit = x | z
			case 1:
				x1, z1, x2, z2 := s.Draw2Q(active)
				if (x1|z1|x2|z2)&^active != 0 {
					t.Fatalf("site %d: 2Q fault outside active mask", i)
				}
				hit = x1 | z1 | x2 | z2
			default:
				flip := s.DrawMeas(active)
				if flip&^active != 0 {
					t.Fatalf("site %d: measurement flip outside active mask", i)
				}
				hit = flip
			}
			faults += bits.OnesCount64(hit)
		}

		switch {
		case p == 0:
			if faults != 0 {
				t.Fatalf("p=0 produced %d faults", faults)
			}
		case p == 1:
			// Every drawn operator is non-identity, so each active cell
			// contributes exactly one faulted lane per site.
			if faults != cells {
				t.Fatalf("p=1 produced %d faulted cells, want %d", faults, cells)
			}
		default:
			mean := p * float64(cells)
			// 5σ of the binomial plus constant slack so the Poisson regime
			// (tiny mean, where a single fault exceeds any multiple of the
			// binomial σ) cannot trip the bound.
			slack := 5*math.Sqrt(mean*(1-p)) + 12
			if diff := math.Abs(float64(faults) - mean); diff > slack {
				t.Fatalf("p=%g over %d cells: %d faults, want %.1f ± %.1f", p, cells, faults, mean, slack)
			}
		}
	})
}

// rawRate maps a raw fuzz word onto a probability in [0, 1] with both
// endpoints reachable.
func rawRate(raw uint64) float64 {
	return float64(raw>>11) / float64(uint64(1)<<53-1)
}

// FuzzSparseSamplerModel extends FuzzSparseSampler to per-class rates and a
// biased two-qubit menu: for arbitrary (p_1q, p_2q, p_meas, eta, seed, site
// count, active mask) inputs it checks the same structural invariants per
// class — a zero-rate class faults nothing, a rate-1 class faults every
// active cell, faults never escape the active mask — a per-class 5-sigma
// binomial envelope on the realized fault counts, and that reconstructing
// the sampler reproduces the stream mask for mask (the determinism the
// block scheduler's Reseed contract rides on).
func FuzzSparseSamplerModel(f *testing.F) {
	f.Add(uint64(1)<<62, uint64(1)<<60, uint64(1)<<58, uint64(1)<<63, uint64(1), 150, ^uint64(0))
	f.Add(uint64(0), ^uint64(0), uint64(1)<<62, uint64(1)<<61, uint64(2), 120, ^uint64(0)) // p1q = 0, pmeas = 1
	f.Add(uint64(1)<<52, uint64(1)<<53, uint64(1)<<54, uint64(0), uint64(3), 300, uint64(0xF0F0F0F0F0F0F0F0))
	f.Add(uint64(3)<<62, uint64(1)<<62, uint64(1)<<63, ^uint64(0), uint64(4), 90, uint64(1)) // single lane
	f.Add(uint64(1)<<61, uint64(1)<<61, uint64(1)<<61, uint64(1)<<59, uint64(5), 60, uint64(0))

	f.Fuzz(func(t *testing.T, p1Raw, p2Raw, pmRaw, etaRaw uint64, seed uint64, sites int, active uint64) {
		if sites < 0 || sites > 2000 {
			return
		}
		m := Model{
			P1Q:   rawRate(p1Raw),
			P2Q:   rawRate(p2Raw),
			PMeas: rawRate(pmRaw),
			// Spread eta across [0.1, 10.1]: both Z-suppressed and Z-heavy
			// menus (the exact eta = 1 menu path is pinned by the unit
			// tests).
			Eta: 0.1 + 10*rawRate(etaRaw),
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("constructed model invalid: %v", err)
		}
		s := NewSparseSamplerModel(m, seed)

		lanes := bits.OnesCount64(active)
		var kindSites [3]int
		var fired [3]int
		masks := make([]uint64, sites)
		for i := 0; i < sites; i++ {
			k := LocKind(i % 3)
			kindSites[k]++
			var hit uint64
			switch k {
			case Loc1Q:
				x, z := s.Draw1Q(active)
				hit = x | z
			case Loc2Q:
				x1, z1, x2, z2 := s.Draw2Q(active)
				hit = x1 | z1 | x2 | z2
			default:
				hit = s.DrawMeas(active)
			}
			if hit&^active != 0 {
				t.Fatalf("site %d: class-%d fault outside active mask %016x: %016x", i, k, active, hit)
			}
			masks[i] = hit
			fired[k] += bits.OnesCount64(hit)
		}

		for k := 0; k < 3; k++ {
			p := m.Rate(LocKind(k))
			cells := kindSites[k] * lanes
			switch {
			case p == 0:
				if fired[k] != 0 {
					t.Fatalf("class %d at p=0 produced %d faults", k, fired[k])
				}
			case p == 1:
				if fired[k] != cells {
					t.Fatalf("class %d at p=1 faulted %d cells, want %d", k, fired[k], cells)
				}
			default:
				mean := p * float64(cells)
				slack := 5*math.Sqrt(mean*(1-p)) + 12
				if diff := math.Abs(float64(fired[k]) - mean); diff > slack {
					t.Fatalf("class %d at p=%g over %d cells: %d faults, want %.1f ± %.1f",
						k, p, cells, fired[k], mean, slack)
				}
			}
		}

		// Determinism: a fresh sampler with the same (model, seed) must
		// reproduce the exact mask stream.
		r := NewSparseSamplerModel(m, seed)
		for i := 0; i < sites; i++ {
			var hit uint64
			switch LocKind(i % 3) {
			case Loc1Q:
				x, z := r.Draw1Q(active)
				hit = x | z
			case Loc2Q:
				x1, z1, x2, z2 := r.Draw2Q(active)
				hit = x1 | z1 | x2 | z2
			default:
				hit = r.DrawMeas(active)
			}
			if hit != masks[i] {
				t.Fatalf("site %d: replay mask %016x differs from first pass %016x", i, hit, masks[i])
			}
		}
	})
}

// FuzzCondSamplerModel locks down the conditional samplers' shared
// schedule (condLaw) under arbitrary per-class models. For random
// (p_1q, p_2q, p_meas, eta, seed, path, live, stray) inputs — rates kept
// below 1/2, the path's kinds and per-site activity drawn from pathSeed —
// it walks 64-lane words along the fault-free path and a divergent tail and
// checks that
//   - every live lane active at every fault-free-path site faults at least
//     once (the conditioning guarantee),
//   - lanes outside the active mask, and lanes outside live, never fault,
//   - Faults[l] equals the number of sites that fired on lane l, and
//   - on gate-only paths CondInjector matches a one-lane CondSampler draw
//     for draw (they diverge only at measurements, where the injector
//     draws from the one-element menu and the sampler draws nothing).
//
// With pairs set it also runs the K >= 2 law over a single-fault table
// whose trajectories follow the path and then stop early, end with it, or
// run on through the tail (checkPairs).
func FuzzCondSamplerModel(f *testing.F) {
	f.Add(uint64(1)<<60, uint64(1)<<60, uint64(1)<<60, uint64(1)<<61, uint64(1), uint64(11), 40, ^uint64(0), uint64(0), false)
	f.Add(uint64(1)<<58, uint64(1)<<60, uint64(1)<<56, uint64(1)<<63, uint64(2), uint64(12), 90, ^uint64(0), ^uint64(0), false)
	f.Add(uint64(0), uint64(1)<<61, uint64(0), uint64(0), uint64(3), uint64(13), 25, uint64(0xF0F0F0F0F0F0F0F0), uint64(0x0F), false)
	f.Add(uint64(1)<<50, uint64(1)<<50, uint64(1)<<62, ^uint64(0), uint64(4), uint64(14), 150, uint64(1), uint64(0), false)
	f.Add(^uint64(0), uint64(1)<<40, uint64(1)<<59, uint64(1)<<62, uint64(5), uint64(15), 1, uint64(0x8000000000000001), uint64(2), false)
	f.Add(uint64(1)<<60, uint64(1)<<60, uint64(1)<<60, uint64(1)<<61, uint64(6), uint64(16), 40, ^uint64(0), uint64(0), true)
	f.Add(uint64(1)<<58, uint64(1)<<61, uint64(1)<<56, uint64(1)<<63, uint64(7), uint64(17), 120, ^uint64(0), ^uint64(0), true)
	f.Add(uint64(0), uint64(1)<<61, uint64(1)<<59, uint64(0), uint64(8), uint64(18), 25, uint64(0xF0F0F0F0F0F0F0F0), uint64(0x0F), true)
	f.Add(uint64(1)<<50, uint64(1)<<50, uint64(1)<<62, ^uint64(0), uint64(9), uint64(19), 3, uint64(1), uint64(0), true)

	f.Fuzz(func(t *testing.T, p1Raw, p2Raw, pmRaw, etaRaw, seed, pathSeed uint64, n int, live, stray uint64, pairs bool) {
		if n < 1 || n > 300 {
			return
		}
		m := Model{
			P1Q:   rawRate(p1Raw) / 2,
			P2Q:   rawRate(p2Raw) / 2,
			PMeas: rawRate(pmRaw) / 2,
			Eta:   0.1 + 10*rawRate(etaRaw),
		}
		ctl := SplitMix64{State: pathSeed}
		kinds := make([]LocKind, n)
		gates := make([]LocKind, n) // the same path with measurements turned into CNOTs
		for i := range kinds {
			kinds[i] = LocKind(ctl.Next() % 3)
			gates[i] = min(kinds[i], Loc2Q)
		}
		tail := make([]LocKind, n/2+1) // sites past a divergence
		for i := range tail {
			tail[i] = LocKind(ctl.Next() % 3)
		}
		flaky := ctl.Next() & ctl.Next() // lanes whose activity varies by site

		for _, path := range [][]LocKind{kinds, gates} {
			if condP := CondProbModel(m, CountKinds(path)); condP <= 0 || condP >= 1 {
				continue // outside the conditional samplers' contract
			}
			s := NewCondSamplerModel(m, path, seed)
			for word := 0; word < 3; word++ {
				s.Reset(live)
				var fired [64]int
				walked := live
				for i, k := range append(path[:n:n], tail...) {
					active := live&(^flaky|ctl.Next()) | stray&^live
					if i < n {
						walked &= active
					}
					var hit uint64
					switch k {
					case Loc1Q:
						x, z := s.Draw1Q(active)
						hit = x | z
					case Loc2Q:
						x1, z1, x2, z2 := s.Draw2Q(active)
						hit = x1 | z1 | x2 | z2
					default:
						hit = s.DrawMeas(active)
					}
					if hit&^(active&live) != 0 {
						t.Fatalf("word %d site %d: fault %016x outside active %016x & live %016x", word, i, hit, active, live)
					}
					for h := hit; h != 0; h &= h - 1 {
						fired[bits.TrailingZeros64(h)]++
					}
				}
				for lane := 0; lane < 64; lane++ {
					if int(s.Faults[lane]) != fired[lane] {
						t.Fatalf("word %d lane %d: Faults = %d, %d sites fired", word, lane, s.Faults[lane], fired[lane])
					}
					if walked>>lane&1 == 1 && fired[lane] == 0 {
						t.Fatalf("word %d lane %d: walked the whole path active without a fault", word, lane)
					}
				}
			}
		}

		if pairs {
			checkPairs(t, m, seed, kinds, tail, live, stray, ctl.Next())
		}

		// Gate-only path: the scalar injector is a one-lane sampler.
		if condP := CondProbModel(m, CountKinds(gates)); condP <= 0 || condP >= 1 {
			return
		}
		s := NewCondSamplerModel(m, gates, seed)
		c := NewCondInjectorModel(m, gates, seed)
		if pairs {
			// Every trajectory of the table is the whole gate path.
			tab := &Singles{}
			for j, k := range gates {
				for oi := range OpsFor(k) {
					tab.Add(j, oi, gates, false)
				}
			}
			if tab.CondProb(m) <= 0 {
				return
			}
			s, c = NewCondSampler2(m, tab, seed), NewCondInjector2(m, tab, seed)
		}
		for shot := 0; shot < 4; shot++ {
			s.Reset(1)
			c.Reset()
			for i, k := range gates {
				f := c.Next(k)
				var lane Fault
				if k == Loc1Q {
					x, z := s.Draw1Q(1)
					lane.P1 = byte(x | z<<1)
				} else {
					x1, z1, x2, z2 := s.Draw2Q(1)
					lane.P1, lane.P2 = byte(x1|z1<<1), byte(x2|z2<<1)
				}
				if f != lane {
					t.Fatalf("shot %d site %d (%v): injector %+v, one-lane sampler %+v", shot, i, k, f, lane)
				}
			}
			if c.Faults != int(s.Faults[0]) {
				t.Fatalf("shot %d: injector Faults %d, sampler %d", shot, c.Faults, s.Faults[0])
			}
		}
	})
}

// checkPairs runs the K >= 2 sampler over a single-fault table whose
// trajectories are prefixes of the global site sequence path+tail: after
// its first fault (j, op) a lane runs to a stop drawn from (j, op) — early
// inside the path, at the path's end, or through the tail. Live lanes walk
// their trajectories exactly; stray lanes are active at random and must
// never fault. Every live lane must tally at least two faults, its first
// one carrying the operator of the table entry the law drew.
func checkPairs(t *testing.T, m Model, seed uint64, path, tail []LocKind, live, stray, salt uint64) {
	t.Helper()
	sites := append(path[:len(path):len(path)], tail...)
	n := len(path)
	stop := func(j, oi int) int {
		h := SplitMix64{State: salt ^ uint64(j*16+oi)}
		switch v := h.Next(); v % 3 {
		case 0:
			return n
		case 1:
			return len(sites)
		default:
			return j + 1 + int(v>>8%uint64(n-j))
		}
	}
	tab := &Singles{}
	for j, k := range path {
		for oi := range OpsFor(k) {
			tab.Add(j, oi, sites[:stop(j, oi)], false)
		}
	}
	if m.MaxRate() >= 1 || tab.CondProb(m) <= 0 {
		return // outside the K >= 2 sampler's contract
	}
	s := NewCondSampler2(m, tab, seed)
	ctl := SplitMix64{State: salt}
	for word := 0; word < 3; word++ {
		s.Reset(live)
		forced := s.op // the table operators the law drew
		var fired [64]int
		var end [64]int // each lane's trajectory end; the path's until its first fault
		for lane := range end {
			end[lane] = n
		}
		for i, k := range sites {
			var on uint64
			for lane := 0; lane < 64; lane++ {
				if i < end[lane] {
					on |= 1 << lane
				}
			}
			active := live&on | stray&^live&ctl.Next()
			var ops [64]Fault
			var hit uint64
			switch k {
			case Loc1Q:
				x, z := s.Draw1Q(active)
				hit = x | z
				for h := hit; h != 0; h &= h - 1 {
					l := bits.TrailingZeros64(h)
					ops[l].P1 = byte(x>>l&1 | z>>l&1<<1)
				}
			case Loc2Q:
				x1, z1, x2, z2 := s.Draw2Q(active)
				hit = x1 | z1 | x2 | z2
				for h := hit; h != 0; h &= h - 1 {
					l := bits.TrailingZeros64(h)
					ops[l] = Fault{P1: byte(x1>>l&1 | z1>>l&1<<1), P2: byte(x2>>l&1 | z2>>l&1<<1)}
				}
			default:
				hit = s.DrawMeas(active)
				for h := hit; h != 0; h &= h - 1 {
					ops[bits.TrailingZeros64(h)].Flip = true
				}
			}
			if hit&^(active&live) != 0 {
				t.Fatalf("pairs word %d site %d: fault %016x outside active %016x & live %016x", word, i, hit, active, live)
			}
			for h := hit; h != 0; h &= h - 1 {
				l := bits.TrailingZeros64(h)
				if fired[l]++; fired[l] > 1 {
					continue
				}
				if i >= n || ops[l] != forced[l] {
					t.Fatalf("pairs word %d lane %d: first fault %+v at site %d, want the table operator %+v on the path", word, l, ops[l], i, forced[l])
				}
				oi := slices.Index(OpsFor(k), ops[l])
				end[l] = stop(i, oi)
			}
		}
		for lane := 0; lane < 64; lane++ {
			if int(s.Faults[lane]) != fired[lane] {
				t.Fatalf("pairs word %d lane %d: Faults = %d, %d sites fired", word, lane, s.Faults[lane], fired[lane])
			}
			if live>>lane&1 == 1 && fired[lane] < 2 {
				t.Fatalf("pairs word %d lane %d: %d faults on a K >= 2 shot", word, lane, fired[lane])
			}
		}
	}
}
