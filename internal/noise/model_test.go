package noise

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// TestModelValidate is the boundary table for Model.Validate: rates exactly
// at 0 and 1 are usable, anything outside [0,1] or non-finite is not, and
// the bias ratio must be positive and finite.
func TestModelValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		ok   bool
	}{
		{"uniform", Uniform(0.01), true},
		{"zero rates", Uniform(0), true},
		{"unit rates", Uniform(1), true},
		{"biased", Model{P1Q: 0.01, P2Q: 0.1, PMeas: 0.001, Eta: 8}, true},
		{"tiny eta", Model{P1Q: 0.01, P2Q: 0.01, PMeas: 0.01, Eta: 1e-9}, true},
		{"huge eta", Model{P1Q: 0.01, P2Q: 0.01, PMeas: 0.01, Eta: 1e12}, true},
		{"negative rate", Model{P1Q: -0.1, P2Q: 0.1, PMeas: 0.1, Eta: 1}, false},
		{"rate above one", Model{P1Q: 0.1, P2Q: 1.5, PMeas: 0.1, Eta: 1}, false},
		{"NaN rate", Model{P1Q: 0.1, P2Q: 0.1, PMeas: math.NaN(), Eta: 1}, false},
		{"Inf rate", Model{P1Q: math.Inf(1), P2Q: 0.1, PMeas: 0.1, Eta: 1}, false},
		{"zero eta", Model{P1Q: 0.1, P2Q: 0.1, PMeas: 0.1, Eta: 0}, false},
		{"negative eta", Model{P1Q: 0.1, P2Q: 0.1, PMeas: 0.1, Eta: -2}, false},
		{"NaN eta", Model{P1Q: 0.1, P2Q: 0.1, PMeas: 0.1, Eta: math.NaN()}, false},
		{"Inf eta", Model{P1Q: 0.1, P2Q: 0.1, PMeas: 0.1, Eta: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.m.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tc.m, err, tc.ok)
			}
		})
	}
}

// TestModelAccessors covers the small pure helpers: Uniform, Scale, Rate,
// MaxRate, UniformRate (exact comparison) and IsUniform.
func TestModelAccessors(t *testing.T) {
	u := Uniform(0.02)
	if p, ok := u.UniformRate(); !ok || p != 0.02 {
		t.Fatalf("Uniform(0.02).UniformRate() = %g, %v", p, ok)
	}
	if !u.IsUniform() {
		t.Fatal("Uniform(0.02) should be uniform")
	}
	if m := (Model{P1Q: 0.02, P2Q: 0.02, PMeas: 0.02, Eta: 4}); m.IsUniform() {
		t.Fatal("eta != 1 must not count as the uniform paper model")
	} else if _, ok := m.UniformRate(); !ok {
		t.Fatal("shared class rate with eta != 1 should still report a uniform rate")
	}
	if _, ok := (Model{P1Q: 0.02, P2Q: 0.03, PMeas: 0.02, Eta: 1}).UniformRate(); ok {
		t.Fatal("distinct class rates must not report a uniform rate")
	}

	m := Model{P1Q: 1, P2Q: 2, PMeas: 0.5, Eta: 8}
	s := m.Scale(0.001)
	want := Model{P1Q: 0.001, P2Q: 0.002, PMeas: 0.0005, Eta: 8}
	if s != want {
		t.Fatalf("Scale(0.001) = %+v, want %+v", s, want)
	}
	if s.Rate(Loc1Q) != 0.001 || s.Rate(Loc2Q) != 0.002 || s.Rate(LocMeas) != 0.0005 {
		t.Fatalf("Rate() disagrees with the fields: %+v", s)
	}
	if s.MaxRate() != 0.002 {
		t.Fatalf("MaxRate() = %g, want 0.002", s.MaxRate())
	}
}

// TestCountKinds checks the per-class tally of a location-kind vector.
func TestCountKinds(t *testing.T) {
	kinds := []LocKind{Loc1Q, Loc2Q, Loc2Q, LocMeas, Loc1Q, Loc2Q, LocMeas}
	if got := CountKinds(kinds); got != [3]int{2, 3, 2} {
		t.Fatalf("CountKinds = %v, want [2 3 2]", got)
	}
	if got := CountKinds(nil); got != [3]int{} {
		t.Fatalf("CountKinds(nil) = %v, want zeros", got)
	}
}

// etaWeight is the test's independent definition of the two-qubit bias: the
// operator weight is eta per tensor slot that is exactly Z.
func etaWeight(op Fault, eta float64) float64 {
	w := 1.0
	if op.P1 == PZ {
		w *= eta
	}
	if op.P2 == PZ {
		w *= eta
	}
	return w
}

// TestOpWeights pins the exported menu-distribution oracle against an
// independent recomputation: one-qubit and measurement menus stay uniform at
// every eta, and the two-qubit menu carries eta^(#pure-Z slots) weights in
// OpsFor order.
func TestOpWeights(t *testing.T) {
	for _, eta := range []float64{1, 0.25, 4, 1000} {
		w1 := OpWeights(Loc1Q, eta)
		wm := OpWeights(LocMeas, eta)
		if len(w1) != 3 || len(wm) != 1 {
			t.Fatalf("eta=%g: menu sizes %d/%d, want 3/1", eta, len(w1), len(wm))
		}
		for _, w := range w1 {
			if math.Abs(w-1.0/3) > 1e-15 {
				t.Fatalf("eta=%g: one-qubit menu not uniform: %v", eta, w1)
			}
		}
		if math.Abs(wm[0]-1) > 1e-15 {
			t.Fatalf("eta=%g: measurement menu weight %g, want 1", eta, wm[0])
		}

		ops := OpsFor(Loc2Q)
		w2 := OpWeights(Loc2Q, eta)
		if len(w2) != len(ops) {
			t.Fatalf("eta=%g: %d two-qubit weights for %d operators", eta, len(w2), len(ops))
		}
		total := 0.0
		for _, op := range ops {
			total += etaWeight(op, eta)
		}
		sum := 0.0
		for i, op := range ops {
			want := etaWeight(op, eta) / total
			if math.Abs(w2[i]-want) > 1e-12 {
				t.Fatalf("eta=%g op %d (%+v): weight %g, want %g", eta, i, op, w2[i], want)
			}
			sum += w2[i]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("eta=%g: two-qubit weights sum to %g", eta, sum)
		}
	}

	// Spot-check the bias structure at eta = 4: ZZ carries eta^2 times the
	// weight of a Z-free operator, ZI exactly eta times.
	ops := OpsFor(Loc2Q)
	w := OpWeights(Loc2Q, 4)
	idx := func(p1, p2 byte) int {
		for i, op := range ops {
			if op.P1 == p1 && op.P2 == p2 {
				return i
			}
		}
		t.Fatalf("operator (%d,%d) missing from the menu", p1, p2)
		return -1
	}
	if r := w[idx(PZ, PZ)] / w[idx(PX, PX)]; math.Abs(r-16) > 1e-9 {
		t.Fatalf("ZZ/XX weight ratio %g, want eta^2 = 16", r)
	}
	if r := w[idx(PZ, PI)] / w[idx(PX, PI)]; math.Abs(r-4) > 1e-9 {
		t.Fatalf("ZI/XI weight ratio %g, want eta = 4", r)
	}
}

// TestMenuSetSharedOpsUntouched pins the fix for the shared-slice hazard: a
// biased menu must weight operators through its own cumulative table and
// never mutate (or copy) the package-level OpsFor slices.
func TestMenuSetSharedOpsUntouched(t *testing.T) {
	var snap [3][]Fault
	for k := 0; k < 3; k++ {
		snap[k] = append([]Fault(nil), OpsFor(LocKind(k))...)
	}
	ms := newMenuSet(7.5)
	var rng SplitMix64
	rng.State = 99
	for i := 0; i < 1000; i++ {
		ms[i%3].draw(&rng)
	}
	for k := 0; k < 3; k++ {
		if !reflect.DeepEqual(snap[k], OpsFor(LocKind(k))) {
			t.Fatalf("kind %d: biased menu mutated the shared OpsFor slice", k)
		}
		if &ms[k].ops[0] != &OpsFor(LocKind(k))[0] {
			t.Fatalf("kind %d: menu copied the operator slice instead of referencing it", k)
		}
	}
}

// TestMenuPickBoundaries covers the cumulative-table inversion edges: u = 0
// selects the first operator, u = 1 the last, and u exactly on a boundary
// belongs to the operator closing that boundary.
func TestMenuPickBoundaries(t *testing.T) {
	ms := newMenuSet(4)
	mn := &ms[Loc2Q]
	if mn.cum == nil {
		t.Fatal("eta = 4 should build a cumulative two-qubit table")
	}
	if got := mn.pick(0); got != mn.ops[0] {
		t.Fatalf("pick(0) = %+v, want the first operator %+v", got, mn.ops[0])
	}
	if got := mn.pick(1); got != mn.ops[len(mn.ops)-1] {
		t.Fatalf("pick(1) = %+v, want the last operator", got)
	}
	for i, c := range mn.cum {
		if got := mn.pick(c); got != mn.ops[i] {
			t.Fatalf("pick(cum[%d]) = %+v, want ops[%d] = %+v", i, got, i, mn.ops[i])
		}
	}
}

// kindAt rotates the three location kinds, the fixed pattern the model tests
// walk injectors with.
func kindAt(i int) LocKind { return LocKind(i % 3) }

// TestNewDepolarizingUniformBitIdentical pins the tentpole's compatibility
// contract on the interpreted engine: NewDepolarizing of a uniform model
// must reproduce the legacy literal form &Depolarizing{P, Rng} fault for
// fault on the same RNG stream.
func TestNewDepolarizingUniformBitIdentical(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.3, 1} {
		legacy := &Depolarizing{P: p, Rng: rand.New(rand.NewSource(7))}
		model := NewDepolarizing(Uniform(p), rand.New(rand.NewSource(7)))
		for i := 0; i < 3000; i++ {
			k := kindAt(i)
			if a, b := legacy.Next(k), model.Next(k); a != b {
				t.Fatalf("p=%g location %d: legacy %+v, model %+v", p, i, a, b)
			}
		}
	}
}

// TestDepolarizingPerClassRates checks that a biased Depolarizing fires each
// location class at its own rate: per-class fault counts must sit within a
// 5-sigma binomial envelope of n·p_class.
func TestDepolarizingPerClassRates(t *testing.T) {
	m := Model{P1Q: 0.05, P2Q: 0.3, PMeas: 0.15, Eta: 1}
	d := NewDepolarizing(m, rand.New(rand.NewSource(41)))
	const perKind = 30000
	var fired [3]int
	for i := 0; i < 3*perKind; i++ {
		k := kindAt(i)
		if !d.Next(k).IsTrivial() {
			fired[k]++
		}
	}
	for k, n := range fired {
		p := m.Rate(LocKind(k))
		mean := p * perKind
		slack := 5*math.Sqrt(mean*(1-p)) + 3
		if math.Abs(float64(n)-mean) > slack {
			t.Fatalf("class %d fired %d of %d, want %.0f ± %.0f", k, n, perKind, mean, slack)
		}
	}
}

// TestDepolarizingBiasedMenuDistribution checks the eta-tilted two-qubit
// menu end to end through the interpreted injector: at eta = 8 the realized
// operator frequencies must match OpWeights within 5 sigma per operator, and
// the three pure-Z-slot operators must dominate the draw.
func TestDepolarizingBiasedMenuDistribution(t *testing.T) {
	const eta, p, n = 8.0, 0.5, 60000
	d := NewDepolarizing(Model{P1Q: p, P2Q: p, PMeas: p, Eta: eta}, rand.New(rand.NewSource(17)))
	ops := OpsFor(Loc2Q)
	counts := map[Fault]int{}
	fires := 0
	for i := 0; i < n; i++ {
		f := d.Next(Loc2Q)
		if f.IsTrivial() {
			continue
		}
		counts[f]++
		fires++
	}
	w := OpWeights(Loc2Q, eta)
	zHeavy := 0
	for i, op := range ops {
		mean := w[i] * float64(fires)
		slack := 5*math.Sqrt(mean*(1-w[i])) + 3
		if math.Abs(float64(counts[op])-mean) > slack {
			t.Fatalf("op %+v drawn %d times of %d fires, want %.0f ± %.0f", op, counts[op], fires, mean, slack)
		}
		if op.P1 == PZ || op.P2 == PZ {
			zHeavy += counts[op]
		}
	}
	// At eta = 8 the seven Z-slot operators carry (6·8 + 64)/120 ≈ 93% of
	// the menu mass.
	if frac := float64(zHeavy) / float64(fires); frac < 0.85 {
		t.Fatalf("Z-slot operators drew only %.1f%% of the fires at eta=8", 100*frac)
	}
}

// sparseStream walks a sampler over n sites with the fixed kind rotation and
// returns the per-site fault masks (the union of all returned components).
func sparseStream(s *SparseSampler, n int, active uint64) []uint64 {
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		switch kindAt(i) {
		case Loc1Q:
			x, z := s.Draw1Q(active)
			out[i] = x | z
		case Loc2Q:
			x1, z1, x2, z2 := s.Draw2Q(active)
			out[i] = x1 | z1 | x2 | z2
		default:
			out[i] = s.DrawMeas(active)
		}
	}
	return out
}

// TestSparseSamplerModelUniformBitIdentical pins the batch engine's
// compatibility contract: a uniform model runs the legacy single-chain
// stream, mask for mask.
func TestSparseSamplerModelUniformBitIdentical(t *testing.T) {
	const p, seed, sites = 0.07, uint64(5), 600
	legacy := NewSparseSampler(p, seed)
	model := NewSparseSamplerModel(Model{P1Q: p, P2Q: p, PMeas: p, Eta: 1}, seed, nil)
	a := sparseStream(legacy, sites, ^uint64(0))
	b := sparseStream(model, sites, ^uint64(0))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("uniform model sampler diverged from the legacy stream")
	}
}

// TestSparseSamplerEtaPreservesFaultSites checks a structural property of
// the one-draw-per-fault design: at a shared class rate, changing eta remaps
// which operator a fired fault draws but not where faults land — both menus
// consume exactly one RNG output per fire, so the fault (site, lane) sets of
// eta = 1 and eta = 8 streams coincide exactly.
func TestSparseSamplerEtaPreservesFaultSites(t *testing.T) {
	const p, seed, sites = 0.1, uint64(13), 450
	plain := NewSparseSamplerModel(Model{P1Q: p, P2Q: p, PMeas: p, Eta: 1}, seed, nil)
	biased := NewSparseSamplerModel(Model{P1Q: p, P2Q: p, PMeas: p, Eta: 8}, seed, nil)
	a := sparseStream(plain, sites, ^uint64(0))
	b := sparseStream(biased, sites, ^uint64(0))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("eta changed the fault sites, not just the drawn operators")
	}
}

// TestSparseSamplerModelPerClassRates checks the per-class chains
// statistically: each class's realized fault count across a full-lane run
// must match Binomial(cells, p_class) within 5 sigma.
func TestSparseSamplerModelPerClassRates(t *testing.T) {
	m := Model{P1Q: 0.02, P2Q: 0.1, PMeas: 0.25, Eta: 1}
	s := NewSparseSamplerModel(m, 77, nil)
	const perKind = 1500
	var fired [3]int
	for i := 0; i < 3*perKind; i++ {
		k := kindAt(i)
		var hit uint64
		switch k {
		case Loc1Q:
			x, z := s.Draw1Q(^uint64(0))
			hit = x | z
		case Loc2Q:
			x1, z1, x2, z2 := s.Draw2Q(^uint64(0))
			hit = x1 | z1 | x2 | z2
		default:
			hit = s.DrawMeas(^uint64(0))
		}
		fired[k] += bits.OnesCount64(hit)
	}
	for k, n := range fired {
		p := m.Rate(LocKind(k))
		cells := float64(perKind * 64)
		mean := p * cells
		slack := 5*math.Sqrt(mean*(1-p)) + 3
		if math.Abs(float64(n)-mean) > slack {
			t.Fatalf("class %d faulted %d cells, want %.0f ± %.0f", k, n, mean, slack)
		}
	}
}

// TestSparseSamplerModelReseedDeterministic checks that Reseed fully
// resynchronizes a biased sampler: the same seed must reproduce the same
// stream, and a different seed must (at these rates) produce a different one.
func TestSparseSamplerModelReseedDeterministic(t *testing.T) {
	m := Model{P1Q: 0.05, P2Q: 0.2, PMeas: 0.1, Eta: 4}
	s := NewSparseSamplerModel(m, 3, nil)
	first := sparseStream(s, 300, ^uint64(0))
	s.Reseed(3)
	if !reflect.DeepEqual(first, sparseStream(s, 300, ^uint64(0))) {
		t.Fatal("Reseed(same) did not reproduce the stream")
	}
	s.Reseed(4)
	if reflect.DeepEqual(first, sparseStream(s, 300, ^uint64(0))) {
		t.Fatal("Reseed(different) reproduced the original stream")
	}
}
