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

var rareCodes = []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()}

// TestRareMatchesDirectOverlap is the overlap-regime cross-check that pins
// the rare-event estimator to direct Monte-Carlo where both resolve: at
// p = 1e-2 on each catalog code family, the two independent estimates of
// the logical error rate must agree within a 5-sigma two-sample bound
// (each estimator contributes its own binomial variance, the rare one
// scaled by CondP²). A reweighting bug — wrong CondP, biased first-fault
// draw, broken gap sampling after the forced fault — shifts the rare
// estimate by far more than 5σ at these sample sizes.
func TestRareMatchesDirectOverlap(t *testing.T) {
	const p = 1e-2
	ctx := context.Background()
	for _, cs := range rareCodes {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			est := NewEstimator(buildProto(t, cs))

			direct, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(p), 0, 512*1024, 11, 0)
			if err != nil {
				t.Fatal(err)
			}
			rare, err := est.AdaptiveModel(ctx, MethodRare, noise.Uniform(p), 0, 256*1024, 23, 0)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Fails == 0 || rare.Fails == 0 {
				t.Fatalf("degenerate overlap sample: direct %d, rare %d fails", direct.Fails, rare.Fails)
			}

			varD := direct.PL * (1 - direct.PL) / float64(direct.Shots)
			q := float64(rare.Fails) / float64(rare.Shots)
			varR := rare.CondP * rare.CondP * q * (1 - q) / float64(rare.Shots)
			sd := math.Sqrt(varD + varR)
			if diff := math.Abs(direct.PL - rare.PL); diff > 5*sd {
				t.Fatalf("estimators disagree: direct %.6g vs rare %.6g (diff %.3g > 5σ = %.3g)",
					direct.PL, rare.PL, diff, 5*sd)
			}
		})
	}
}

// TestRareMatchesFaultOrderSingleFault is the exact end of the cross-check:
// the w = 1 stratum of a rare-event run samples precisely the conditional
// law that FaultOrder's exhaustive single-fault enumeration integrates, so
// for a fault-tolerant protocol both must be exactly zero — and the
// conditioning must leave the w = 0 stratum empty.
func TestRareMatchesFaultOrderSingleFault(t *testing.T) {
	ctx := context.Background()
	for _, cs := range rareCodes {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			est := NewEstimator(buildProto(t, cs))
			fo, err := est.FaultOrderModel(ctx, 1, 0, rand.New(rand.NewSource(1)), noise.Uniform(1))
			if err != nil {
				t.Fatal(err)
			}
			if fo.F[1] != 0 {
				t.Fatalf("FaultOrder F[1] = %g, want exactly 0 (FT certificate)", fo.F[1])
			}
			if c := est.ClassCounts(); c[0]+c[1]+c[2] != fo.N {
				t.Fatalf("location counts differ: rare %v, FaultOrder %d", c, fo.N)
			}

			_, rare, err := rareAt(ctx, est, 1, noise.Uniform(1e-3), 0, 128*1024, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(rare.Strata) == 0 || rare.Strata[0].W != 1 || rare.Strata[0].Shots == 0 {
				t.Fatalf("rare strata %+v, want a sampled w = 1 stratum first (no w = 0)", rare.Strata)
			}
			if s := rare.Strata[0]; s.Fails != 0 {
				t.Fatalf("single-fault stratum recorded %d fails of %d; enumeration proves 0", s.Fails, s.Shots)
			}
		})
	}
}

// bigCondWeight is the math/big reference for the uniform CondWeightsModel:
// the conditional binomial mass C(n,w) p^w (1-p)^(n-w) / (1-(1-p)^n) at 200-bit
// precision, immune to the cancellation that makes the float64 form
// delicate at extreme rates.
func bigCondWeight(n, w int, p float64) float64 {
	const prec = 200
	bp := new(big.Float).SetPrec(prec).SetFloat64(p)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	q := new(big.Float).SetPrec(prec).Sub(one, bp)
	pow := func(x *big.Float, k int) *big.Float {
		r := new(big.Float).SetPrec(prec).SetInt64(1)
		for i := 0; i < k; i++ {
			r.Mul(r, x)
		}
		return r
	}
	num := new(big.Float).SetPrec(prec).SetInt(new(big.Int).Binomial(int64(n), int64(w)))
	num.Mul(num, pow(bp, w))
	num.Mul(num, pow(q, n-w))
	den := new(big.Float).SetPrec(prec).Sub(one, pow(q, n))
	num.Quo(num, den)
	out, _ := num.Float64()
	return out
}

// TestCondWeightsSumToOne checks the defining normalization of the
// conditional fault-count distribution: over the enumerable range
// w = 1..n the weights must sum to exactly 1 (within float rounding),
// with weight 0 at w = 0.
func TestCondWeightsSumToOne(t *testing.T) {
	for _, n := range []int{1, 2, 21, 120} {
		for _, p := range []float64{1e-9, 1e-4, 0.1, 0.5, 0.99} {
			weights := CondWeightsModel([3]int{n}, n, noise.Uniform(p))
			if weights[0] != 0 {
				t.Errorf("n=%d p=%g: weight[0] = %g, want 0", n, p, weights[0])
			}
			sum := 0.0
			for _, w := range weights {
				sum += w
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("n=%d p=%g: weights sum to %.17g, want 1", n, p, sum)
			}
		}
	}
}

// TestCondWeightsBigReference pins the float64 reweighting math to the
// math/big reference at the extreme rates of the satellite spec — p = 1e-9,
// where 1-(1-p)^n loses every digit without expm1/log1p, and p = 0.5, where
// the binomial mass is spread widest.
func TestCondWeightsBigReference(t *testing.T) {
	for _, p := range []float64{1e-9, 0.5} {
		for _, n := range []int{1, 5, 21, 64} {
			weights := CondWeightsModel([3]int{n}, n, noise.Uniform(p))
			for w := 1; w <= n; w++ {
				want := bigCondWeight(n, w, p)
				if want < 1e-290 {
					// In or near the float64 subnormal range the log-space
					// evaluation cannot hold a relative-error bound (and
					// such strata are statistically irrelevant); require
					// only that the float path agrees it is negligible.
					if weights[w] > 1e-290 {
						t.Errorf("n=%d w=%d p=%g: weight %g, reference says < 1e-290", n, w, p, weights[w])
					}
					continue
				}
				if rel := math.Abs(weights[w]-want) / want; rel > 1e-9 {
					t.Errorf("n=%d w=%d p=%g: weight %.17g, big reference %.17g (rel err %.2g)",
						n, w, p, weights[w], want, rel)
				}
			}
		}
	}
}

// TestCondWeightsBoundaries locks the boundary behaviour: exact limits at
// p = 0 and p = 1 and NaN/Inf-free output across the whole closed range,
// including denormal-adjacent rates.
func TestCondWeightsBoundaries(t *testing.T) {
	if w := CondWeightsModel([3]int{5}, 5, noise.Uniform(0)); !reflect.DeepEqual(w, make([]float64, 6)) {
		t.Errorf("p=0: weights %v, want all zero", w)
	}
	w := CondWeightsModel([3]int{5}, 5, noise.Uniform(1))
	for i, v := range w {
		want := 0.0
		if i == 5 {
			want = 1
		}
		if v != want {
			t.Errorf("p=1: weight[%d] = %g, want %g", i, v, want)
		}
	}
	if w := CondWeightsModel([3]int{5}, 3, noise.Uniform(1)); !reflect.DeepEqual(w, make([]float64, 4)) {
		t.Errorf("p=1 maxW<n: weights %v, want all zero", w)
	}
	if w := CondWeightsModel([3]int{0}, 3, noise.Uniform(0.5)); !reflect.DeepEqual(w, make([]float64, 4)) {
		t.Errorf("n=0: weights %v, want all zero", w)
	}
	for _, p := range []float64{0, 1e-300, 1e-9, 0.5, 1 - 1e-16, 1} {
		for _, n := range []int{1, 21, 200} {
			for i, v := range CondWeightsModel([3]int{n}, 63, noise.Uniform(p)) {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
					t.Fatalf("n=%d p=%g: weight[%d] = %g out of [0,1]", n, p, i, v)
				}
			}
		}
	}
	// CondProbModel itself must stay clean at the same boundaries.
	for _, p := range []float64{0, 1e-300, 0.5, 1} {
		if v := noise.CondProbModel(noise.Uniform(p), [3]int{21}); math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("CondProbModel(Uniform(%g), 21) = %g out of [0,1]", p, v)
		}
	}
}

// TestAdaptiveWorkerDeterminism is the regression test for the
// block-scheduled sampling rework: with a fixed seed, the pooled
// (shots, fails) of an adaptive run — and the full strata of a rare-event
// run — must be identical across worker counts for both methods, because
// RNG streams are keyed by block index, not worker.
func TestAdaptiveWorkerDeterminism(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))
	const p = 0.02
	const seed = 5

	for _, method := range []Method{MethodDirect, MethodRare} {
		var ref *Counts
		for _, workers := range []int{1, 2, 5} {
			_, got, err := est.adaptive(ctx, method, noise.Uniform(p), 0.08, 300_000, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = &got
				continue
			}
			if got.Shots != ref.Shots || got.Fails != ref.Fails {
				t.Errorf("%v: workers=%d got (%d, %d), workers=1 got (%d, %d)",
					method, workers, got.Shots, got.Fails, ref.Shots, ref.Fails)
			}
			if !reflect.DeepEqual(got.Strata, ref.Strata) {
				t.Errorf("%v: workers=%d strata %v != %v", method, workers, got.Strata, ref.Strata)
			}
		}
		if ref.Fails == 0 {
			t.Errorf("%v: degenerate run, no failures at p=%g", method, p)
		}
	}
}

// TestRareEnginesAgree pins the batch conditional sampler to the
// interpreter statistically: the rare-event estimate on the batch engine
// and direct sampling on the interpreted reference (interpretedPL) reach
// PL through entirely different code paths, so at matched budgets they
// must agree within 5 sigma.
func TestRareEnginesAgree(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	const p = 0.01
	const shots = 128 * 1024

	rare, err := est.AdaptiveModel(context.Background(), MethodRare, noise.Uniform(p), 0, shots, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct := interpretedPL(est, noise.Uniform(p), shots, 41)

	if rare.Fails == 0 || direct == 0 {
		t.Fatalf("degenerate sample: rare %d fails, interpreted PL %g", rare.Fails, direct)
	}
	q := float64(rare.Fails) / float64(rare.Shots)
	varR := rare.CondP * rare.CondP * q * (1 - q) / shots
	varD := direct * (1 - direct) / shots
	if diff, sd := math.Abs(rare.PL-direct), math.Sqrt(varR+varD); diff > 5*sd {
		t.Fatalf("rare batch PL %.5g vs interpreted direct PL %.5g (diff > 5σ = %.5g)",
			rare.PL, direct, 5*sd)
	}
}

// TestRareResultConsistency checks the internal accounting of a rare-event
// run: strata partition the shot and failure totals, the pooled estimate is
// exactly CondP·q with a bracketing scaled Wilson interval, and the
// weighted-sample diagnostics are the Kish statistics of the strata under
// CondWeightsModel.
func TestRareResultConsistency(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	m := noise.Uniform(5e-3)
	res, pooled, err := rareAt(context.Background(), est, 1, m, 0, 100_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodRare {
		t.Errorf("method %v, want rare", res.Method)
	}
	if res.Shots != 100_000 {
		t.Errorf("shots %d, want exactly the 100000 budget with targetRSE=0", res.Shots)
	}
	if wantCondP := noise.CondProbModel(m, est.ClassCounts()); res.CondP != wantCondP {
		t.Errorf("CondP %g, want %g", res.CondP, wantCondP)
	}
	if got := res.CondP * float64(res.Fails) / float64(res.Shots); math.Abs(got-res.PL) > 1e-15 {
		t.Errorf("PL %g != CondP·q = %g", res.PL, got)
	}
	if !(res.CILo <= res.PL && res.PL <= res.CIHi) {
		t.Errorf("CI [%g, %g] does not bracket PL %g", res.CILo, res.CIHi, res.PL)
	}

	if err := pooled.Validate(Sampling{Method: MethodRare, MinFaults: 1}); err != nil {
		t.Errorf("pooled counts malformed: %v", err)
	}
	weights := CondWeightsModel(est.ClassCounts(), rareMaxW, m)
	var shots, fails int64
	var sumW, sumW2 float64
	for _, s := range pooled.Strata {
		if s.W < 1 || s.Shots <= 0 {
			t.Errorf("stratum %+v: want W >= 1 and shots > 0", s)
		}
		shots += s.Shots
		fails += s.Fails
		sumW += weights[s.W]
		sumW2 += weights[s.W] * weights[s.W] / float64(s.Shots)
	}
	if shots != int64(res.Shots) || fails != int64(res.Fails) {
		t.Errorf("strata sum to (%d, %d), totals are (%d, %d)", shots, fails, res.Shots, res.Fails)
	}
	if want := sumW * sumW / sumW2; res.EffectiveSamples != want {
		t.Errorf("effective samples %g, want the Kish size %g of the strata", res.EffectiveSamples, want)
	}
	if res.EffectiveSamples <= 0 || res.EffectiveSamples > float64(res.Shots)+1e-9 {
		t.Errorf("effective samples %g outside (0, %d]", res.EffectiveSamples, res.Shots)
	}
	if want := math.Max(0, float64(res.Shots)/res.EffectiveSamples-1); math.Abs(res.WeightVariance-want) > 1e-12 {
		t.Errorf("weight variance %g inconsistent with effective samples (want %g)", res.WeightVariance, want)
	}
}

// TestParseMethod covers the method name round-trip and rejection.
func TestParseMethod(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Method
	}{
		{"", MethodAuto}, {"auto", MethodAuto}, {"direct", MethodDirect}, {"rare", MethodRare},
	} {
		got, err := ParseMethod(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("Method %v String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseMethod("subset"); err == nil {
		t.Error("ParseMethod accepted an unknown method name")
	}
}

// TestCrossoverPolicy pins the auto selection: rare strictly below the
// CondP = 0.5 crossover, direct at and above it (and at the degenerate
// rates where the conditional law does not exist).
func TestCrossoverPolicy(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	n := len(est.LocationKinds())
	// The crossover rate solves 1-(1-p)^n = 0.5.
	pStar := 1 - math.Pow(0.5, 1/float64(n))
	for _, c := range []struct {
		p    float64
		want Method
	}{
		{1e-5, MethodRare},
		{pStar / 2, MethodRare},
		{pStar * 2, MethodDirect},
		{0.5, MethodDirect},
		{0, MethodDirect},
		{1, MethodDirect},
	} {
		if got := est.CrossoverModel(noise.Uniform(c.p)); got != c.want {
			t.Errorf("CrossoverModel(Uniform(%g)) = %v, want %v (N=%d)", c.p, got, c.want, n)
		}
	}
}

// TestAdaptiveMethodDispatch checks the AdaptiveModel entry point end to end:
// auto resolves to rare deep below the crossover and to direct above it,
// and both paths return populated statistics.
func TestAdaptiveMethodDispatch(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))

	rare, err := est.AdaptiveModel(ctx, MethodAuto, noise.Uniform(1e-4), 0.3, 2_000_000, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rare.Method != MethodRare {
		t.Errorf("auto at p=1e-4 ran %v, want rare", rare.Method)
	}
	if rare.CondP >= 0.5 || rare.CondP <= 0 {
		t.Errorf("rare CondP %g outside (0, 0.5)", rare.CondP)
	}

	direct, err := est.AdaptiveModel(ctx, MethodAuto, noise.Uniform(0.05), 0.1, 500_000, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Method != MethodDirect {
		t.Errorf("auto at p=0.05 ran %v, want direct", direct.Method)
	}
	if direct.CondP != 1 || direct.WeightVariance != 0 {
		t.Errorf("direct result carries conditional diagnostics: %+v", direct)
	}
	if direct.EffectiveSamples != float64(direct.Shots) {
		t.Errorf("direct effective samples %g != shots %d", direct.EffectiveSamples, direct.Shots)
	}
	if direct.Fails == 0 || direct.PL <= 0 {
		t.Errorf("direct run degenerate: %+v", direct)
	}
}

// TestRareValidation covers the argument contract of the rare-event
// method: rates outside (0,1) wrap ErrBadRate (forced method only — auto
// falls back to direct there), bad budgets and targets reuse the shared
// sentinels.
func TestRareValidation(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))
	for _, p := range []float64{0, -0.1, 1, 1.5} {
		if _, err := est.AdaptiveModel(ctx, MethodRare, noise.Uniform(p), 0.1, 1000, 1, 1); !errors.Is(err, ErrBadRate) {
			t.Errorf("AdaptiveModel(rare, p=%g) error %v, want ErrBadRate", p, err)
		}
	}
	if _, err := est.AdaptiveModel(ctx, MethodRare, noise.Uniform(0.01), 0.1, 0, 1, 1); !errors.Is(err, ErrBadShots) {
		t.Errorf("zero budget error %v, want ErrBadShots", err)
	}
	if _, err := est.AdaptiveModel(ctx, MethodRare, noise.Uniform(0.01), 1.0, 1000, 1, 1); !errors.Is(err, ErrBadTarget) {
		t.Errorf("target 1.0 error %v, want ErrBadTarget", err)
	}
	// Auto never routes a degenerate rate to the conditional estimator.
	if res, err := est.AdaptiveModel(ctx, MethodAuto, noise.Uniform(0.9), 0, 64, 1, 1); err != nil || res.Method != MethodDirect {
		t.Errorf("AdaptiveModel(auto, p=0.9) = %+v, %v; want a direct run", res, err)
	}
}

// TestRareNeverExceedsMaxShots mirrors the direct-path budget test: awkward
// caps (not multiples of the block or lane size) must land exactly on the
// cap, exercising the masked final word of the conditional batch path.
func TestRareNeverExceedsMaxShots(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))
	for _, cap := range []int{10_001, 8192, 63, 1} {
		_, res, err := est.adaptive(ctx, MethodRare, noise.Uniform(0.01), 0, cap, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shots != int64(cap) {
			t.Errorf("cap %d: ran %d shots", cap, res.Shots)
		}
		var shots int64
		for _, s := range res.Strata {
			shots += s.Shots
		}
		if shots != int64(cap) {
			t.Errorf("cap %d: strata count %d shots", cap, shots)
		}
	}
}

// TestRareEventResolvesTinyRates is the tentpole's reason to exist: at
// p = 1e-5 — where direct Monte-Carlo would need ~10^10 shots for a single
// expected failure — the conditional estimator must reach a 10% RSE within
// a modest shot budget, with a positive estimate and a bracketing CI.
func TestRareEventResolvesTinyRates(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	res, err := est.AdaptiveModel(context.Background(), MethodRare, noise.Uniform(1e-5), 0.1, 8_000_000, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PL <= 0 || res.PL > 1e-6 {
		t.Fatalf("PL = %g at p=1e-5, want a positive rate far below 1e-6", res.PL)
	}
	if res.RSE <= 0 || res.RSE > 0.1 {
		t.Fatalf("RSE %g, want (0, 0.1] within the budget", res.RSE)
	}
	if !(res.CILo <= res.PL && res.PL <= res.CIHi) || res.CILo <= 0 {
		t.Fatalf("CI [%g, %g] does not bracket PL %g", res.CILo, res.CIHi, res.PL)
	}
}
