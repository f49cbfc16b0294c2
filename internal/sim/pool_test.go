package sim

import (
	"context"
	"math"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

// TestPoolCountsExact pins the "sums exactly" contract: pooling is plain
// integer addition with stratum-wise merging, in any grouping.
func TestPoolCountsExact(t *testing.T) {
	cases := []struct {
		name  string
		parts []Counts
		want  Counts
	}{
		{name: "empty", parts: nil, want: Counts{}},
		{
			name:  "direct pair",
			parts: []Counts{{Shots: 4096, Fails: 3}, {Shots: 4096, Fails: 5}},
			want:  Counts{Shots: 8192, Fails: 8},
		},
		{
			name: "strata merge and sort",
			parts: []Counts{
				{Shots: 100, Fails: 2, Strata: []StratumCount{{W: 2, Shots: 30, Fails: 1}, {W: 5, Shots: 70, Fails: 1}}},
				{Shots: 50, Fails: 1, Strata: []StratumCount{{W: 1, Shots: 20}, {W: 2, Shots: 30, Fails: 1}}},
			},
			want: Counts{Shots: 150, Fails: 3, Strata: []StratumCount{
				{W: 1, Shots: 20}, {W: 2, Shots: 60, Fails: 2}, {W: 5, Shots: 70, Fails: 1},
			}},
		},
		{
			name: "disjoint strata keep their counts",
			parts: []Counts{
				{Shots: 10, Fails: 0, Strata: []StratumCount{{W: 3, Shots: 10}}},
				{Shots: 10, Fails: 1, Strata: []StratumCount{{W: 1, Shots: 10, Fails: 1}}},
			},
			want: Counts{Shots: 20, Fails: 1, Strata: []StratumCount{
				{W: 1, Shots: 10, Fails: 1}, {W: 3, Shots: 10},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := PoolCounts(tc.parts...)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("PoolCounts = %+v, want %+v", got, tc.want)
			}
			// Grouping invariance: fold pairwise instead of all at once.
			acc := Counts{}
			for _, p := range tc.parts {
				acc = PoolCounts(acc, p)
			}
			if acc.Shots != tc.want.Shots || acc.Fails != tc.want.Fails || !reflect.DeepEqual(acc.Strata, tc.want.Strata) {
				t.Fatalf("pairwise fold = %+v, want %+v", acc, tc.want)
			}
			// Order invariance.
			rev := make([]Counts, len(tc.parts))
			for i, p := range tc.parts {
				rev[len(tc.parts)-1-i] = p
			}
			if got2 := PoolCounts(rev...); !reflect.DeepEqual(got2, tc.want) {
				t.Fatalf("reversed PoolCounts = %+v, want %+v", got2, tc.want)
			}
		})
	}
}

// TestCountsResultDirectBig cross-checks the direct finisher — PL, RSE and
// the Wilson interval — against 200-bit math/big references on a table
// spanning the boundary cases.
func TestCountsResultDirectBig(t *testing.T) {
	const prec = 200
	cases := []struct{ fails, shots int64 }{
		{0, 1}, {0, 10_000_000}, {1, 4096}, {43, 4000}, {4000, 4000}, {123456, 10_000_000},
	}
	for _, tc := range cases {
		res, err := Counts{Shots: tc.shots, Fails: tc.fails}.ResultModel(MethodDirect, noise.Uniform(1e-2), [3]int{0})
		if err != nil {
			t.Fatalf("ResultModel(%d/%d): %v", tc.fails, tc.shots, err)
		}
		// PL reference.
		pl := new(big.Float).SetPrec(prec).Quo(big.NewFloat(float64(tc.fails)), big.NewFloat(float64(tc.shots)))
		if got, _ := pl.Float64(); math.Abs(res.PL-got) > 1e-15*math.Max(1, got) {
			t.Errorf("%d/%d: PL = %g, big reference %g", tc.fails, tc.shots, res.PL, got)
		}
		// RSE reference: sqrt((1-q)/fails).
		if tc.fails == 0 {
			if res.RSE != 0 {
				t.Errorf("%d/%d: RSE = %g, want 0 without failures", tc.fails, tc.shots, res.RSE)
			}
		} else {
			q := new(big.Float).SetPrec(prec).Quo(big.NewFloat(float64(tc.fails)), big.NewFloat(float64(tc.shots)))
			one := big.NewFloat(1).SetPrec(prec)
			num := new(big.Float).SetPrec(prec).Sub(one, q)
			num.Quo(num, big.NewFloat(float64(tc.fails)))
			ref, _ := num.Float64()
			ref = math.Sqrt(ref)
			if rel := math.Abs(res.RSE-ref) / math.Max(ref, 1e-300); ref > 0 && rel > 1e-12 {
				t.Errorf("%d/%d: RSE = %g, big reference %g (rel %g)", tc.fails, tc.shots, res.RSE, ref, rel)
			}
		}
		// The Wilson interval must bracket the point estimate and stay in
		// [0,1]; exact agreement with the closed form is pinned elsewhere
		// (TestWilson) — here we check the finisher wired it unscaled.
		lo, hi := Wilson(int(tc.fails), int(tc.shots))
		if res.CILo != lo || res.CIHi != hi {
			t.Errorf("%d/%d: CI = [%g,%g], Wilson says [%g,%g]", tc.fails, tc.shots, res.CILo, res.CIHi, lo, hi)
		}
		if res.EffectiveSamples != float64(tc.shots) || res.WeightVariance != 0 || res.CondP != 1 {
			t.Errorf("%d/%d: direct diagnostics polluted: eff=%g var=%g condP=%g",
				tc.fails, tc.shots, res.EffectiveSamples, res.WeightVariance, res.CondP)
		}
	}
}

// TestCountsResultRareBig cross-checks the rare-event finisher against
// math/big references: PL = CondP·q exactly, the CI scaled by CondP, and
// the Kish effective sample size (Σ W_w)²/(Σ W_w²/n_w) recomputed at
// 200-bit precision from the same CondWeightsModel.
func TestCountsResultRareBig(t *testing.T) {
	const (
		prec = 200
		n    = 500 // fault locations
	)
	for _, p := range []float64{1e-9, 1e-4, 0.5} {
		c := Counts{Shots: 10000, Fails: 37, Strata: []StratumCount{
			{W: 1, Shots: 9000, Fails: 20},
			{W: 2, Shots: 900, Fails: 12},
			{W: 3, Shots: 100, Fails: 5},
		}}
		res, err := c.ResultModel(MethodRare, noise.Uniform(p), [3]int{n})
		if err != nil {
			t.Fatalf("p=%g: %v", p, err)
		}
		condP := noise.CondProbModel(noise.Uniform(p), [3]int{n})
		if res.CondP != condP {
			t.Fatalf("p=%g: CondP = %g, want %g", p, res.CondP, condP)
		}
		// PL = CondP·q in big.
		q := new(big.Float).SetPrec(prec).Quo(big.NewFloat(float64(c.Fails)), big.NewFloat(float64(c.Shots)))
		pl := new(big.Float).SetPrec(prec).Mul(big.NewFloat(condP), q)
		ref, _ := pl.Float64()
		if rel := math.Abs(res.PL-ref) / math.Max(ref, 1e-300); rel > 1e-15 {
			t.Errorf("p=%g: PL = %g, big reference %g (rel %g)", p, res.PL, ref, rel)
		}
		// Kish effective samples in big from the same weights.
		weights := CondWeightsModel([3]int{n}, rareMaxW, noise.Uniform(p))
		sumW := new(big.Float).SetPrec(prec)
		sumW2 := new(big.Float).SetPrec(prec)
		for _, s := range c.Strata {
			w := new(big.Float).SetPrec(prec).SetFloat64(weights[s.W])
			sumW.Add(sumW, w)
			w2 := new(big.Float).SetPrec(prec).Mul(w, w)
			w2.Quo(w2, big.NewFloat(float64(s.Shots)))
			sumW2.Add(sumW2, w2)
		}
		if sumW2.Sign() > 0 {
			eff := new(big.Float).SetPrec(prec).Mul(sumW, sumW)
			eff.Quo(eff, sumW2)
			refEff, _ := eff.Float64()
			if rel := math.Abs(res.EffectiveSamples-refEff) / refEff; rel > 1e-9 {
				t.Errorf("p=%g: EffectiveSamples = %g, big reference %g (rel %g)", p, res.EffectiveSamples, refEff, rel)
			}
		}
		// CI scaling.
		lo, hi := Wilson(int(c.Fails), int(c.Shots))
		if res.CILo != condP*lo || res.CIHi != condP*hi {
			t.Errorf("p=%g: CI = [%g,%g], want CondP-scaled [%g,%g]", p, res.CILo, res.CIHi, condP*lo, condP*hi)
		}
	}
}

// TestCountsResultValidation pins the finisher's error contract.
func TestCountsResultValidation(t *testing.T) {
	if _, err := (Counts{}).ResultModel(MethodDirect, noise.Uniform(1e-2), [3]int{0}); err == nil {
		t.Error("empty pool: want ErrBadShots, got nil")
	}
	if _, err := (Counts{Shots: 10}).ResultModel(MethodAuto, noise.Uniform(1e-2), [3]int{10}); err == nil {
		t.Error("unresolved method: want error, got nil")
	}
	if _, err := (Counts{Shots: 10}).ResultModel(MethodRare, noise.Uniform(0), [3]int{10}); err == nil {
		t.Error("rare at p=0: want ErrBadRate, got nil")
	}
	if _, err := (Counts{Shots: 10}).ResultModel(MethodRare, noise.Uniform(1e-2), [3]int{0}); err == nil {
		t.Error("rare without locations: want ErrBadRate, got nil")
	}
}

// TestBlockRunnerShardsMatchAdaptive is the exact-aggregation acceptance
// test at the sim layer: cutting a fixed budget into arbitrary contiguous
// shards, running each shard on its own BlockRunner (fresh engine state,
// like a worker that just stole the shard — or a process that resumed from
// a checkpoint), pooling the counts and finishing the pool must reproduce
// the single-process adaptive result bit-identically, on both engines and
// both methods.
func TestBlockRunnerShardsMatchAdaptive(t *testing.T) {
	const (
		p        = 2e-2
		seed     = 424242
		maxShots = 3*BlockShots*1 + 1000 // odd, word-unaligned, clamps the final block
	)
	est := NewEstimator(buildProto(t, code.Steane()))
	ctx := context.Background()

	for _, engine := range []Engine{EngineBatch, EngineScalar} {
		for _, method := range []Method{MethodDirect, MethodRare} {
			t.Run(engine.String()+"/"+method.String(), func(t *testing.T) {
				if err := est.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				defer est.SetEngine(EngineAuto)

				var want AdaptiveResult
				if method == MethodRare {
					r, err := est.RareEventAdaptiveModel(ctx, noise.Uniform(p), 0, maxShots, seed, 3)
					if err != nil {
						t.Fatal(err)
					}
					want = r.AdaptiveResult
				} else {
					var err error
					want, err = est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(p), 0, maxShots, seed, 3)
					if err != nil {
						t.Fatal(err)
					}
				}

				// Shard the block grid unevenly: blocks {0}, {1,2}, {3}.
				totalBlocks := (maxShots + BlockShots - 1) / BlockShots
				shards := [][]int{{0}, {1, 2}, {3}}
				var parts []Counts
				for _, blocks := range shards {
					r, err := est.NewBlockRunnerModel(method, noise.Uniform(p))
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range blocks {
						if b >= totalBlocks {
							t.Fatalf("shard block %d outside the %d-block grid", b, totalBlocks)
						}
						n := BlockShots
						if rem := maxShots - b*BlockShots; n > rem {
							n = rem
						}
						r.RunBlock(ctx, seed, b, n)
					}
					parts = append(parts, r.Counts())
				}
				got, err := PoolCounts(parts...).ResultModel(method, noise.Uniform(p), est.ClassCounts())
				if err != nil {
					t.Fatal(err)
				}

				want.ShotsPerSec, got.ShotsPerSec = 0, 0 // wall-clock, not part of the invariant
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pooled shard result diverges from single-process run:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
