package sim

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

// biasedTestModel is the reference biased model of the statistical
// acceptance tests: two-qubit faults at twice the base rate, measurement
// flips at half, and a strongly Z-tilted CNOT menu.
func biasedTestModel(p float64) noise.Model {
	return noise.Model{P1Q: p, P2Q: 2 * p, PMeas: 0.5 * p, Eta: 4}
}

// TestGoldenRatesModelPathFourEngines reruns the four-engine golden fixture
// through the Model constructors: NewDepolarizing(Uniform(p)) on the three
// scalar engines and NewSparseSamplerModel(Uniform(p)) on the batch engine
// must reproduce the legacy literal-form counts bit-identically — the
// tentpole's no-regression pin (43/43/43 scalar, 64 batch).
func TestGoldenRatesModelPathFourEngines(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	prog := est.Program()
	if prog == nil {
		t.Fatal("Steane protocol failed to compile")
	}
	batch := est.Batch()
	if batch == nil {
		t.Fatal("Steane batch engine unavailable")
	}
	const pp, shots, seed = 0.02, 4000, 12345
	model := noise.Uniform(pp)

	countRun := 0
	inj := noise.NewDepolarizing(model, rand.New(rand.NewSource(seed)))
	for s := 0; s < shots; s++ {
		if est.Judge(Run(p, inj)) {
			countRun++
		}
	}

	countProg := 0
	inj = noise.NewDepolarizing(model, rand.New(rand.NewSource(seed)))
	sh := prog.NewShot()
	for s := 0; s < shots; s++ {
		prog.Run(sh, inj)
		if prog.Judge(sh) {
			countProg++
		}
	}

	countTab := 0
	inj = noise.NewDepolarizing(model, rand.New(rand.NewSource(seed)))
	for s := 0; s < shots; s++ {
		if est.Judge(RunTableau(p, inj)) {
			countTab++
		}
	}

	smp := noise.NewSparseSamplerModel(model, seed)
	countBatch := batch.sample(batch.NewShot(), smp, shots)

	if countRun != goldenSteaneFails || countProg != goldenSteaneFails || countTab != goldenSteaneFails {
		t.Fatalf("model-path scalar engines moved off the golden count: run=%d program=%d tableau=%d, want %d",
			countRun, countProg, countTab, goldenSteaneFails)
	}
	if countBatch != goldenSteaneBatchFails {
		t.Fatalf("model-path batch count %d, want the golden %d", countBatch, goldenSteaneBatchFails)
	}
}

// TestFaultOrderModelUniformDelegates pins the delegation contract: a
// uniform ratio at any scale must produce exactly the uniform branch's
// result on the same RNG stream — same F vector, same class counts.
func TestFaultOrderModelUniformDelegates(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	ctx := context.Background()
	uniform, err := est.faultOrder(ctx, 2, 300, rand.New(rand.NewSource(3)), est.LocationKinds())
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range []noise.Model{noise.Uniform(1), noise.Uniform(0.37)} {
		model, err := est.FaultOrderModel(ctx, 2, 300, rand.New(rand.NewSource(3)), ratio)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(uniform, model) {
			t.Fatalf("%+v: FaultOrderModel diverged from the uniform branch:\nuniform %+v\nmodel   %+v", ratio, uniform, model)
		}
	}
}

// TestFaultOrderModelSingleFaultExact cross-checks the weighted exhaustive
// single-fault enumeration against an independent replay: every location's
// operators re-run through the interpreted engine, weighted by the class
// rate and the eta-tilted operator weights, must reproduce F[1] exactly.
// On a fault-tolerant protocol both are exactly zero — the bias-invariant
// FT certificate — so the test also verifies the weights it sums are the
// model's (positive, normalized per location).
func TestFaultOrderModelSingleFaultExact(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	ctx := context.Background()
	ratio := noise.Model{P1Q: 1, P2Q: 2.5, PMeas: 0.5, Eta: 4}
	fo, err := est.FaultOrderModel(ctx, 1, 0, rand.New(rand.NewSource(1)), ratio)
	if err != nil {
		t.Fatal(err)
	}

	kinds := est.LocationKinds()
	classW := [3]float64{ratio.P1Q, ratio.P2Q, ratio.PMeas}
	var opW [3][]float64
	for k := range opW {
		opW[k] = noise.OpWeights(noise.LocKind(k), ratio.Eta)
	}
	var sum, totW float64
	for loc, kind := range kinds {
		var x float64
		for oi, op := range noise.OpsFor(kind) {
			if est.Judge(Run(est.P, noise.NewPlan(map[int]noise.Fault{loc: op}))) {
				x += opW[kind][oi]
			}
		}
		sum += classW[kind] * x
		totW += classW[kind]
	}
	if want := sum / totW; fo.F[1] != want {
		t.Fatalf("weighted single-fault rate %g, independent replay %g", fo.F[1], want)
	}
	if fo.F[1] != 0 {
		t.Fatalf("FT certificate must be bias-invariant: F[1] = %g, want exactly 0", fo.F[1])
	}
	if fo.ClassCounts != noise.CountKinds(kinds) {
		t.Fatalf("ClassCounts %v disagree with the location kinds %v", fo.ClassCounts, noise.CountKinds(kinds))
	}
}

// TestFaultOrderModelFTCertificateBiased extends the exhaustive single-fault
// certificate across the code families: fault tolerance is a property of the
// protocol, so F[1] must be exactly zero under any per-class weighting.
func TestFaultOrderModelFTCertificateBiased(t *testing.T) {
	ctx := context.Background()
	ratio := noise.Model{P1Q: 1, P2Q: 10, PMeas: 0.1, Eta: 100}
	for _, cs := range rareCodes {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			est := NewEstimator(buildProto(t, cs))
			fo, err := est.FaultOrderModel(ctx, 1, 0, rand.New(rand.NewSource(1)), ratio)
			if err != nil {
				t.Fatal(err)
			}
			if fo.F[1] != 0 {
				t.Fatalf("biased F[1] = %g, want exactly 0 (FT certificate)", fo.F[1])
			}
		})
	}
}

// bigCondWeightModel is the math/big reference for CondWeightsModel: the
// order-w mass of the convolution of three class binomials, divided by
// 1 - prod_c (1-p_c)^(n_c), at 200-bit precision.
func bigCondWeightModel(counts [3]int, w int, rates [3]float64) float64 {
	const prec = 200
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	bp := func(v float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(v) }
	pow := func(x *big.Float, k int) *big.Float {
		r := new(big.Float).SetPrec(prec).SetInt64(1)
		for i := 0; i < k; i++ {
			r.Mul(r, x)
		}
		return r
	}
	term := func(n, k int, p float64) *big.Float {
		r := new(big.Float).SetPrec(prec).SetInt(new(big.Int).Binomial(int64(n), int64(k)))
		r.Mul(r, pow(bp(p), k))
		r.Mul(r, pow(new(big.Float).SetPrec(prec).Sub(one, bp(p)), n-k))
		return r
	}
	num := new(big.Float).SetPrec(prec)
	for w1 := 0; w1 <= w && w1 <= counts[0]; w1++ {
		for w2 := 0; w1+w2 <= w && w2 <= counts[1]; w2++ {
			w3 := w - w1 - w2
			if w3 > counts[2] {
				continue
			}
			prod := term(counts[0], w1, rates[0])
			prod.Mul(prod, term(counts[1], w2, rates[1]))
			prod.Mul(prod, term(counts[2], w3, rates[2]))
			num.Add(num, prod)
		}
	}
	den := new(big.Float).SetPrec(prec).SetInt64(1)
	for c, n := range counts {
		den.Mul(den, pow(new(big.Float).SetPrec(prec).Sub(one, bp(rates[c])), n))
	}
	den.Sub(one, den)
	num.Quo(num, den)
	f, _ := num.Float64()
	return f
}

// TestCondWeightsModelUniformDelegates pins the strata-weight delegation:
// under a uniform-rate model only the location total matters, so the
// per-class counts and their total as a single class must return exactly
// the same slice.
func TestCondWeightsModelUniformDelegates(t *testing.T) {
	for _, p := range []float64{1e-6, 1e-3, 0.2} {
		counts := [3]int{12, 30, 9}
		got := CondWeightsModel(counts, 10, noise.Uniform(p))
		want := CondWeightsModel([3]int{51}, 10, noise.Uniform(p))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%g: per-class weights %v != single-class weights %v", p, got, want)
		}
	}
}

// TestCondWeightsModelBigReference checks the class-binomial convolution
// against the exact math/big evaluation across subcritical and order-one
// rate regimes, to 1e-9 relative error.
func TestCondWeightsModelBigReference(t *testing.T) {
	cases := []struct {
		counts [3]int
		rates  [3]float64
	}{
		{[3]int{12, 30, 9}, [3]float64{1e-5, 3e-5, 2e-6}},
		{[3]int{12, 30, 9}, [3]float64{0.3, 0.1, 0.5}},
		{[3]int{40, 100, 25}, [3]float64{1e-8, 1e-9, 1e-7}},
		{[3]int{5, 0, 3}, [3]float64{0.02, 0.9, 0.01}},
	}
	for _, tc := range cases {
		m := noise.Model{P1Q: tc.rates[0], P2Q: tc.rates[1], PMeas: tc.rates[2], Eta: 1}
		weights := CondWeightsModel(tc.counts, 6, m)
		if weights[0] != 0 {
			t.Fatalf("%v/%v: weights[0] = %g, want 0", tc.counts, tc.rates, weights[0])
		}
		for w := 1; w <= 6; w++ {
			want := bigCondWeightModel(tc.counts, w, tc.rates)
			if want < 1e-290 {
				continue // below the float64 ladder; skip like the uniform reference test
			}
			rel := math.Abs(weights[w]-want) / want
			if rel > 1e-9 {
				t.Fatalf("%v/%v w=%d: weight %.17g, big reference %.17g (rel err %.2g)",
					tc.counts, tc.rates, w, weights[w], want, rel)
			}
		}
	}
}

// TestOrderPMFModelBoundaries is the NaN/Inf boundary table of the
// class-binomial convolution: rates exactly 0 and 1 must take their exact
// limits, the full PMF must sum to 1, and RateModel must stay finite.
func TestOrderPMFModelBoundaries(t *testing.T) {
	counts := [3]int{3, 2, 4}
	n := 9
	cases := []struct {
		name string
		m    noise.Model
		minW int // smallest order with mass (rate-1 classes force faults)
	}{
		{"zero and one", noise.Model{P1Q: 0, P2Q: 1, PMeas: 0.5, Eta: 1}, 2},
		{"all zero but one class at 1", noise.Model{P1Q: 0, P2Q: 1, PMeas: 0, Eta: 1}, 2},
		{"two classes at 1", noise.Model{P1Q: 1, P2Q: 1, PMeas: 0, Eta: 4}, 5},
		{"interior rates", noise.Model{P1Q: 0.1, P2Q: 0.9, PMeas: 0.5, Eta: 1}, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pmf := orderPMFModel(counts, n, tc.m)
			sum := 0.0
			for w, v := range pmf {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("pmf[%d] = %g", w, v)
				}
				if w < tc.minW && v != 0 {
					t.Fatalf("pmf[%d] = %g below the forced minimum order %d", w, v, tc.minW)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("pmf sums to %g", sum)
			}

			fo := FaultOrderResult{N: n, ClassCounts: counts, F: []float64{0, 0, 0.25}}
			if r := fo.RateModel(tc.m); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > 1 {
				t.Fatalf("RateModel = %g, want a finite probability", r)
			}
		})
	}
}

// TestResultModelBoundaries covers the pooled-count finisher at the model
// boundaries: a uniform model finishes per-class counts exactly as their
// total passed as a single class (the job layer's uniform points), a direct
// pool ignores the bias entirely, and a rare pool under a boundary model
// returns a typed error rather than NaN statistics.
func TestResultModelBoundaries(t *testing.T) {
	counts := [3]int{10, 20, 5}
	pool := Counts{Shots: 4096, Fails: 17, Strata: []StratumCount{{W: 1, Shots: 4000, Fails: 10}, {W: 2, Shots: 96, Fails: 7}}}

	single, err := pool.ResultModel(MethodRare, noise.Uniform(0.01), [3]int{35})
	if err != nil {
		t.Fatal(err)
	}
	model, err := pool.ResultModel(MethodRare, noise.Uniform(0.01), counts)
	if err != nil {
		t.Fatal(err)
	}
	if single != model {
		t.Fatalf("uniform ResultModel depends on the class split:\nsingle %+v\nmodel  %+v", single, model)
	}

	direct, err := pool.ResultModel(MethodDirect, noise.Model{P1Q: 0, P2Q: 1, PMeas: 0.5, Eta: 1}, counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(direct.PL) || direct.PL != float64(pool.Fails)/float64(pool.Shots) {
		t.Fatalf("direct boundary-model result %+v", direct)
	}

	if _, err := pool.ResultModel(MethodRare, noise.Model{P1Q: 0.5, P2Q: 1, PMeas: 0.5, Eta: 1}, counts); !errors.Is(err, ErrBadRate) {
		t.Fatalf("rate-1 class rare pool: err = %v, want ErrBadRate", err)
	}
	if _, err := pool.ResultModel(MethodRare, noise.Model{P1Q: 0, P2Q: 0, PMeas: 0.5, Eta: 1}, [3]int{10, 20, 0}); !errors.Is(err, ErrBadRate) {
		t.Fatalf("zero-CondP rare pool: err = %v, want ErrBadRate", err)
	}

	biased, err := pool.ResultModel(MethodRare, biasedTestModel(1e-3), counts)
	if err != nil {
		t.Fatal(err)
	}
	condP := noise.CondProbModel(biasedTestModel(1e-3), counts)
	if want := condP * float64(pool.Fails) / float64(pool.Shots); biased.PL != want {
		t.Fatalf("biased rare PL = %g, want CondP·q = %g", biased.PL, want)
	}
	if biased.CondP != condP || biased.EffectiveSamples <= 0 || math.IsNaN(biased.WeightVariance) {
		t.Fatalf("biased rare statistics incomplete: %+v", biased)
	}
}

// TestCrossoverModelAndResolve covers the method policy over models: uniform
// models resolve exactly as the scalar policy, deeply subcritical biased
// models pick the rare-event estimator, order-one ones direct, and the
// rare-event contract rejects boundary models with ErrBadRate.
func TestCrossoverModelAndResolve(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	ctx := context.Background()

	n := float64(len(est.LocationKinds()))
	for _, p := range []float64{1e-6, 1e-4, 1e-2, 0.2} {
		want := MethodDirect
		if 1-math.Pow(1-p, n) < rareCrossover {
			want = MethodRare
		}
		if got := est.CrossoverModel(noise.Uniform(p)); got != want {
			t.Fatalf("p=%g: CrossoverModel %v, want %v from 1-(1-p)^N", p, got, want)
		}
	}
	if got := est.CrossoverModel(biasedTestModel(1e-6)); got != MethodRare {
		t.Fatalf("subcritical biased model resolved to %v, want rare", got)
	}
	if got := est.CrossoverModel(noise.Model{P1Q: 0.3, P2Q: 0.6, PMeas: 0.1, Eta: 1}); got != MethodDirect {
		t.Fatalf("order-one biased model resolved to %v, want direct", got)
	}
	if got := est.CrossoverModel(noise.Model{P1Q: 0.5, P2Q: 1, PMeas: 0.5, Eta: 1}); got != MethodDirect {
		t.Fatalf("rate-1 class resolved to %v, want direct", got)
	}

	if _, err := est.AdaptiveModel(ctx, MethodRare, noise.Model{P1Q: 0.5, P2Q: 1, PMeas: 0.5, Eta: 1}, 0.5, 1000, 1, 1); !errors.Is(err, ErrBadRate) {
		t.Fatalf("explicit rare with a rate-1 class: err = %v, want ErrBadRate", err)
	}
	if _, err := est.AdaptiveModel(ctx, MethodRare, noise.Uniform(0), 0.5, 1000, 1, 1); !errors.Is(err, ErrBadRate) {
		t.Fatalf("explicit rare at p = 0: err = %v, want ErrBadRate", err)
	}
}

// TestRareMatchesDirectBiased is the biased twin of the overlap-regime
// cross-check, per the acceptance criteria: on each code family the
// rare-event estimate under the biased model must agree with direct
// Monte-Carlo of the same model within a 5-sigma two-sample bound.
func TestRareMatchesDirectBiased(t *testing.T) {
	ctx := context.Background()
	m := biasedTestModel(1e-2)
	for _, cs := range rareCodes {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			est := NewEstimator(buildProto(t, cs))

			direct, err := est.AdaptiveModel(ctx, MethodDirect, m, 0, 512*1024, 11, 0)
			if err != nil {
				t.Fatal(err)
			}
			rare, err := est.RareEventAdaptiveModel(ctx, m, 0, 256*1024, 23, 0)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Fails == 0 || rare.Fails == 0 {
				t.Fatalf("degenerate biased sample: direct %d, rare %d fails", direct.Fails, rare.Fails)
			}
			if rare.PL != rare.CondP*rare.Q {
				t.Fatalf("rare invariant broken: PL %g != CondP·Q %g", rare.PL, rare.CondP*rare.Q)
			}

			varD := direct.PL * (1 - direct.PL) / float64(direct.Shots)
			q := rare.Q
			varR := rare.CondP * rare.CondP * q * (1 - q) / float64(rare.Shots)
			sd := math.Sqrt(varD + varR)
			if diff := math.Abs(direct.PL - rare.PL); diff > 5*sd {
				t.Fatalf("biased estimators disagree: direct %.6g vs rare %.6g (diff %.3g > 5σ = %.3g)",
					direct.PL, rare.PL, diff, 5*sd)
			}
		})
	}
}

// TestBatchMatchesScalarBiased is the biased cross-engine acceptance test:
// direct Monte-Carlo of the same biased model on the scalar and batch
// engines (independent RNG streams) must agree within a 5-sigma
// two-proportion bound on each code family.
func TestBatchMatchesScalarBiased(t *testing.T) {
	ctx := context.Background()
	m := biasedTestModel(2e-2)
	const shots = 128 * 1024
	for _, cs := range rareCodes {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			p := buildProto(t, cs)

			scalar := NewEstimator(p)
			if err := scalar.SetEngine(EngineScalar); err != nil {
				t.Fatal(err)
			}
			sres, err := scalar.AdaptiveModel(ctx, MethodDirect, m, 0, shots, 31, 0)
			if err != nil {
				t.Fatal(err)
			}

			batch := NewEstimator(p)
			if err := batch.SetEngine(EngineBatch); err != nil {
				t.Fatal(err)
			}
			bres, err := batch.AdaptiveModel(ctx, MethodDirect, m, 0, shots, 37, 0)
			if err != nil {
				t.Fatal(err)
			}

			if sres.Fails == 0 || bres.Fails == 0 {
				t.Fatalf("degenerate sample: scalar %d, batch %d fails", sres.Fails, bres.Fails)
			}
			n1, n2 := float64(sres.Shots), float64(bres.Shots)
			pooled := float64(sres.Fails+bres.Fails) / (n1 + n2)
			se := math.Sqrt(pooled * (1 - pooled) * (1/n1 + 1/n2))
			if z := math.Abs(sres.PL-bres.PL) / se; z > 5 {
				t.Fatalf("engines disagree under bias: scalar %.6g vs batch %.6g (z = %.2f)", sres.PL, bres.PL, z)
			}
		})
	}
}

// TestRareEventAdaptiveModelStrataWeights checks that a biased rare-event
// run reports the class-binomial strata weights and covers all its shots
// with the strata breakdown.
func TestRareEventAdaptiveModelStrataWeights(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	m := biasedTestModel(5e-3)
	res, err := est.RareEventAdaptiveModel(context.Background(), m, 0, 64*1024, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	weights := CondWeightsModel(est.ClassCounts(), 63, m)
	total := 0
	for _, s := range res.Strata {
		if s.W == 0 {
			t.Fatalf("conditioning leaked a zero-fault stratum: %+v", s)
		}
		if s.Weight != weights[s.W] {
			t.Fatalf("stratum W=%d reports weight %g, want the model weight %g", s.W, s.Weight, weights[s.W])
		}
		total += s.Shots
	}
	if total != res.Shots {
		t.Fatalf("strata cover %d of %d shots", total, res.Shots)
	}
}

// TestProgramZeroAllocsBiased extends the compiled engine's zero-alloc
// guarantee to biased models: the per-class rates and weighted menu must add
// no per-shot allocations.
func TestProgramZeroAllocsBiased(t *testing.T) {
	p := buildProto(t, code.Steane())
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	inj := noise.NewDepolarizing(noise.Model{P1Q: 0.02, P2Q: 0.05, PMeas: 0.01, Eta: 4}, rand.New(rand.NewSource(9)))
	sh := prog.NewShot()
	fails := 0
	allocs := testing.AllocsPerRun(2000, func() {
		prog.Run(sh, inj)
		if prog.Judge(sh) {
			fails++
		}
	})
	if allocs != 0 {
		t.Fatalf("biased compiled shot loop allocates %.2f times per shot, want 0", allocs)
	}
}

// TestBatchZeroAllocsBiased is the batch-engine twin: a per-class sparse
// sampler with a biased menu must keep the 64-shot word loop allocation-free.
func TestBatchZeroAllocsBiased(t *testing.T) {
	_, batch := buildBatch(t, code.Steane())
	smp := noise.NewSparseSamplerModel(noise.Model{P1Q: 0.02, P2Q: 0.05, PMeas: 0.01, Eta: 4}, 9)
	bs := batch.NewShot()
	fails := 0
	allocs := testing.AllocsPerRun(200, func() {
		batch.Run(bs, smp, ^uint64(0))
		if batch.Judge(bs) != 0 {
			fails++
		}
	})
	if allocs != 0 {
		t.Fatalf("biased batch word loop allocates %.2f times per word, want 0", allocs)
	}
}
