package noise

import (
	"math"
	"math/big"
	"math/bits"
	"reflect"
	"testing"
)

// testKinds builds the repeated location-kind pattern the conditional model
// tests walk: 1Q, 2Q, 2Q, Meas per repetition.
func testKinds(reps int) []LocKind {
	kinds := make([]LocKind, 0, 4*reps)
	for i := 0; i < reps; i++ {
		kinds = append(kinds, Loc1Q, Loc2Q, Loc2Q, LocMeas)
	}
	return kinds
}

// TestCondProbModelUniformDelegation pins the bit-identity contract: a model
// with one shared class rate must return exactly condProb(n, p) over the
// total — the same code path, not a numerically-close reimplementation — so
// a uniform point may pass its location total as a single class.
func TestCondProbModelUniformDelegation(t *testing.T) {
	for _, p := range []float64{0, 1e-9, 1e-3, 0.3, 1} {
		for _, counts := range [][3]int{{3, 4, 5}, {0, 0, 0}, {100, 0, 0}} {
			n := counts[0] + counts[1] + counts[2]
			got := CondProbModel(Uniform(p), counts)
			if want := condProb(n, p); got != want {
				t.Fatalf("p=%g counts=%v: CondProbModel = %g, condProb = %g (must be bit-equal)", p, counts, got, want)
			}
			if single := CondProbModel(Uniform(p), [3]int{n}); got != single {
				t.Fatalf("p=%g counts=%v: %g, but the total as one class gives %g", p, counts, got, single)
			}
		}
	}
}

// bigCondProbModel is the math/big reference for CondProbModel:
// 1 - prod_c (1-p_c)^(n_c) at 200-bit precision.
func bigCondProbModel(rates [3]float64, counts [3]int) float64 {
	const prec = 200
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	prod := new(big.Float).SetPrec(prec).SetInt64(1)
	for c, n := range counts {
		q := new(big.Float).SetPrec(prec).Sub(one, new(big.Float).SetPrec(prec).SetFloat64(rates[c]))
		for i := 0; i < n; i++ {
			prod.Mul(prod, q)
		}
	}
	res := new(big.Float).SetPrec(prec).Sub(one, prod)
	f, _ := res.Float64()
	return f
}

// TestCondProbModelBigReference checks the generalized conditioning weight
// against the exact math/big product over rate regimes from deeply
// subcritical to order-one, where log-space accumulation and naive products
// disagree in float64.
func TestCondProbModelBigReference(t *testing.T) {
	cases := []struct {
		m      Model
		counts [3]int
	}{
		{Model{P1Q: 1e-9, P2Q: 3e-9, PMeas: 2e-10, Eta: 1}, [3]int{40, 120, 30}},
		{Model{P1Q: 1e-5, P2Q: 2e-5, PMeas: 5e-6, Eta: 4}, [3]int{200, 500, 100}},
		{Model{P1Q: 0.01, P2Q: 0.05, PMeas: 0.002, Eta: 1}, [3]int{50, 80, 20}},
		{Model{P1Q: 0.3, P2Q: 0.1, PMeas: 0.5, Eta: 2}, [3]int{7, 11, 3}},
		{Model{P1Q: 0, P2Q: 1e-7, PMeas: 0, Eta: 1}, [3]int{500, 300, 200}},
	}
	for _, tc := range cases {
		got := CondProbModel(tc.m, tc.counts)
		want := bigCondProbModel([3]float64{tc.m.P1Q, tc.m.P2Q, tc.m.PMeas}, tc.counts)
		rel := math.Abs(got-want) / want
		if rel > 1e-12 {
			t.Fatalf("%+v over %v: CondProbModel = %.17g, big reference %.17g (rel err %.2g)",
				tc.m, tc.counts, got, want, rel)
		}
	}
}

// TestCondProbModelBoundaries is the NaN/Inf boundary table: class rates
// exactly 0 and 1 must take their exact limits with no non-finite
// intermediate.
func TestCondProbModelBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		m      Model
		counts [3]int
		want   float64
	}{
		{"all zero rates", Model{Eta: 1, P2Q: 0, PMeas: 0}, [3]int{5, 5, 5}, 0},
		{"no locations", Model{P1Q: 0.1, P2Q: 0.2, PMeas: 0.3, Eta: 1}, [3]int{0, 0, 0}, 0},
		{"rate-1 class with locations", Model{P1Q: 0.1, P2Q: 1, PMeas: 0, Eta: 1}, [3]int{2, 3, 4}, 1},
		{"rate-1 class without locations", Model{P1Q: 0, P2Q: 1, PMeas: 0, Eta: 1}, [3]int{5, 0, 7}, 0},
		{"only empty classes carry rate", Model{P1Q: 0, P2Q: 0.5, PMeas: 0, Eta: 1}, [3]int{5, 0, 7}, 0},
		{"mixed 0/1", Model{P1Q: 0, P2Q: 0, PMeas: 1, Eta: 1}, [3]int{2, 3, 4}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := CondProbModel(tc.m, tc.counts)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("non-finite conditioning weight %g", got)
			}
			if got != tc.want {
				t.Fatalf("CondProbModel = %g, want exactly %g", got, tc.want)
			}
		})
	}
}

// condModelStream Resets the sampler and walks one full pass over kinds,
// returning the per-location union fault masks.
func condModelStream(s *CondSampler, kinds []LocKind, live uint64) []uint64 {
	s.Reset(live)
	out := make([]uint64, len(kinds))
	for i, k := range kinds {
		switch k {
		case Loc1Q:
			x, z := s.Draw1Q(live)
			out[i] = x | z
		case Loc2Q:
			x1, z1, x2, z2 := s.Draw2Q(live)
			out[i] = x1 | z1 | x2 | z2
		default:
			out[i] = s.DrawMeas(live)
		}
	}
	return out
}

// TestCondSamplerModelUniformBitIdentical pins the rare-event batch engine's
// uniform contract: a uniform-rate model runs the single global chain, so
// its stream depends on the location count alone — relabelling every
// location as one-qubit must draw the identical fault sites — its CondP is
// condProb over the total, and changing eta alone must keep the fault
// locations (each fire costs one draw under either menu).
func TestCondSamplerModelUniformBitIdentical(t *testing.T) {
	const p, seed = 0.03, uint64(29)
	kinds := testKinds(25)
	single := NewCondSamplerModel(Uniform(p), make([]LocKind, len(kinds)), seed, nil)
	model := NewCondSamplerModel(Uniform(p), kinds, seed, nil)
	if model.law.nch != 1 || model.CondP != condProb(len(kinds), p) {
		t.Fatalf("uniform model left the single-chain path: %d chains, CondP %g", model.law.nch, model.CondP)
	}
	for word := 0; word < 20; word++ {
		a := condModelStream(single, kinds, ^uint64(0))
		b := condModelStream(model, kinds, ^uint64(0))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("word %d: uniform stream depends on the location classes", word)
		}
		if single.Faults != model.Faults {
			t.Fatalf("word %d: fault tallies diverged", word)
		}
	}

	biased := NewCondSamplerModel(Model{P1Q: p, P2Q: p, PMeas: p, Eta: 8}, kinds, seed, nil)
	reference := NewCondSamplerModel(Uniform(p), kinds, seed, nil)
	for word := 0; word < 20; word++ {
		a := condModelStream(reference, kinds, ^uint64(0))
		b := condModelStream(biased, kinds, ^uint64(0))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("word %d: eta moved the conditional fault sites", word)
		}
	}
}

// TestCondSamplerModelForcesFault checks the conditioning guarantee under a
// per-class model: every live lane of every word gets at least one fault,
// a zero-rate class never faults, and lanes outside live stay clean.
func TestCondSamplerModelForcesFault(t *testing.T) {
	m := Model{P1Q: 0.002, P2Q: 0.01, PMeas: 0, Eta: 2}
	kinds := testKinds(30)
	s := NewCondSamplerModel(m, kinds, 71, nil)
	const live = uint64(0x00FF_FFFF_FFFF_FF0F)
	for word := 0; word < 50; word++ {
		s.Reset(live)
		var union uint64
		for i, k := range kinds {
			var hit uint64
			switch k {
			case Loc1Q:
				x, z := s.Draw1Q(live)
				hit = x | z
			case Loc2Q:
				x1, z1, x2, z2 := s.Draw2Q(live)
				hit = x1 | z1 | x2 | z2
			default:
				hit = s.DrawMeas(live)
				if hit != 0 {
					t.Fatalf("word %d location %d: zero-rate measurement class faulted", word, i)
				}
			}
			if hit&^live != 0 {
				t.Fatalf("word %d location %d: fault outside live mask", word, i)
			}
			union |= hit
		}
		for l := live; l != 0; l &= l - 1 {
			lane := uint(bits.TrailingZeros64(l))
			if s.Faults[lane] == 0 {
				t.Fatalf("word %d lane %d: conditional sampler produced a fault-free shot", word, lane)
			}
		}
		if union&^live != 0 {
			t.Fatalf("word %d: faults escaped the live mask", word)
		}
	}
}

// firstFaultPMF is the exact first-fault location law of the per-class
// conditional construction: P(J = j) = (prod_{i<j} (1-p_{k_i})) p_{k_j} /
// CondP over the fault-free path.
func firstFaultPMF(m Model, kinds []LocKind) []float64 {
	pmf := make([]float64, len(kinds))
	surv := 1.0
	sum := 0.0
	for j, k := range kinds {
		p := m.Rate(k)
		pmf[j] = surv * p
		sum += pmf[j]
		surv *= 1 - p
	}
	for j := range pmf {
		pmf[j] /= sum
	}
	return pmf
}

// TestCondInjectorModelFirstFaultDistribution checks the CDF-inverted forced
// first fault of the scalar conditional injector against the exact law: over
// many shots, each location's first-fault frequency must sit within 5 sigma
// of its truncated per-class probability.
func TestCondInjectorModelFirstFaultDistribution(t *testing.T) {
	m := Model{P1Q: 0.3, P2Q: 0.1, PMeas: 0.2, Eta: 1}
	kinds := testKinds(3) // 12 locations, heavy rates: every bin well-populated
	inj := NewCondInjectorModel(m, kinds, 123, nil)
	const shots = 40000
	counts := make([]int, len(kinds))
	for s := 0; s < shots; s++ {
		inj.Reset()
		first := -1
		for i, k := range kinds {
			if !inj.Next(k).IsTrivial() && first < 0 {
				first = i
			}
		}
		if first < 0 {
			t.Fatalf("shot %d: conditional injector fired no fault", s)
		}
		counts[first]++
	}
	pmf := firstFaultPMF(m, kinds)
	for j, c := range counts {
		mean := pmf[j] * shots
		slack := 5*math.Sqrt(mean*(1-pmf[j])) + 3
		if math.Abs(float64(c)-mean) > slack {
			t.Fatalf("location %d: first fault %d times of %d, want %.0f ± %.0f", j, c, shots, mean, slack)
		}
	}
}

// TestCondModelFaultCountMeans pins both conditional engines to the analytic
// conditional mean: E[#faults | >= 1] = sum_c n_c p_c / CondP, checked
// against the sample mean within five standard errors for the scalar
// injector and the batch sampler independently.
func TestCondModelFaultCountMeans(t *testing.T) {
	m := Model{P1Q: 0.004, P2Q: 0.02, PMeas: 0.008, Eta: 4}
	kinds := testKinds(40) // 160 locations
	counts := CountKinds(kinds)
	condP := CondProbModel(m, counts)
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	meanWant := 0.0
	for c, n := range counts {
		meanWant += float64(n) * rates[c]
	}
	meanWant /= condP

	check := func(name string, samples []float64) {
		t.Helper()
		n := float64(len(samples))
		var sum, sum2 float64
		for _, v := range samples {
			sum += v
			sum2 += v * v
		}
		mean := sum / n
		se := math.Sqrt((sum2/n-mean*mean)/n) + 1e-12
		if math.Abs(mean-meanWant) > 5*se {
			t.Fatalf("%s: conditional mean fault count %.4f, want %.4f ± %.4f", name, mean, meanWant, 5*se)
		}
	}

	inj := NewCondInjectorModel(m, kinds, 404, nil)
	scalar := make([]float64, 0, 20000)
	for s := 0; s < 20000; s++ {
		inj.Reset()
		for _, k := range kinds {
			inj.Next(k)
		}
		scalar = append(scalar, float64(inj.Faults))
	}
	check("scalar injector", scalar)

	smp := NewCondSamplerModel(m, kinds, 505, nil)
	batch := make([]float64, 0, 320*64)
	for word := 0; word < 320; word++ {
		condModelStream(smp, kinds, ^uint64(0))
		for lane := 0; lane < 64; lane++ {
			batch = append(batch, float64(smp.Faults[lane]))
		}
	}
	check("batch sampler", batch)
}

// TestCondInjectorModelUniformBitIdentical pins the scalar injector's
// uniform contract, mirroring the batch sampler's: a uniform model runs the
// single chain, whose stream depends on the location count alone.
func TestCondInjectorModelUniformBitIdentical(t *testing.T) {
	const p, seed = 0.05, uint64(911)
	kinds := testKinds(20)
	single := NewCondInjectorModel(Uniform(p), make([]LocKind, len(kinds)), seed, nil)
	model := NewCondInjectorModel(Uniform(p), kinds, seed, nil)
	if model.law.nch != 1 || model.CondP != condProb(len(kinds), p) {
		t.Fatalf("uniform model left the single-chain path: %d chains, CondP %g", model.law.nch, model.CondP)
	}
	for shot := 0; shot < 200; shot++ {
		single.Reset()
		model.Reset()
		for i, k := range kinds {
			if a, b := single.Next(k), model.Next(k); a != b {
				t.Fatalf("shot %d location %d: single-class %+v, model %+v", shot, i, a, b)
			}
		}
		if single.Faults != model.Faults {
			t.Fatalf("shot %d: fault tallies differ", shot)
		}
	}
}
