package sim

import (
	"context"
	"math"
	"math/big"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
)

// kindRecorder replays a fault plan and records the kind of every location
// the shot executes.
type kindRecorder struct {
	plan  *noise.Plan
	kinds []noise.LocKind
}

func (r *kindRecorder) Next(k noise.LocKind) noise.Fault {
	r.kinds = append(r.kinds, k)
	return r.plan.Next(k)
}

// refTrajectories runs every single fault of the fault-free path through
// the interpreted executor — the reference for the estimator's compiled
// single-fault table — and calls visit with its location, operator index
// and operator weight under model m, and the kinds of the trajectory the
// fault forces.
func refTrajectories(p *core.Protocol, m noise.Model, visit func(j, oi int, w float64, traj []noise.LocKind)) {
	ctr := &noise.Counter{}
	Run(p, ctr)
	for j, kind := range ctr.Kinds {
		weights := noise.OpWeights(kind, m.Eta)
		for oi, op := range noise.OpsFor(kind) {
			rec := &kindRecorder{plan: noise.NewPlan(map[int]noise.Fault{j: op})}
			Run(p, rec)
			visit(j, oi, weights[oi], rec.kinds)
		}
	}
}

// refPairRate is the reference p² failure mass of the K >= 2 estimator,
// enumerated pair by pair along single-fault trajectories: the sum over
// first faults (j, op1) on the fault-free path and second faults (s, op2)
// on T(j, op1) after j of P(the first two faults are these) · fail(pair),
// with the pairs decided 64 per word on the batch engine. It leaves out
// three-fault terms, a relative O(N·p) correction.
func refPairRate(t *testing.T, est *Estimator, m noise.Model) (rate float64, pairs int) {
	t.Helper()
	if est.batch == nil {
		t.Fatal("no batch engine")
	}
	lg := [3]float64{math.Log1p(-m.P1Q), math.Log1p(-m.P2Q), math.Log1p(-m.PMeas)}
	bs := est.batch.NewShot()
	var plan noise.BatchPlan
	var weights [64]float64
	lane := 0
	flush := func() {
		est.batch.Run(bs, &plan, 1<<uint(lane)-1)
		for f := est.batch.Judge(bs); f != 0; f &= f - 1 {
			rate += weights[bits.TrailingZeros64(f)]
		}
		plan.Reset()
		lane = 0
	}
	refTrajectories(est.P, m, func(j, oi int, w1 float64, traj []noise.LocKind) {
		op1 := noise.OpsFor(traj[j])[oi]
		var before float64 // log P(no fault before the location)
		for _, k := range traj[:j] {
			before += lg[k]
		}
		first := math.Exp(before) * m.Rate(traj[j]) * w1
		gap := 0.0
		for s := j + 1; s < len(traj); s++ {
			k := traj[s]
			second := math.Exp(gap) * m.Rate(k)
			gap += lg[k]
			for oi2, op2 := range noise.OpsFor(k) {
				plan.Set(lane, j, op1)
				plan.Set(lane, s, op2)
				weights[lane] = first * second * noise.OpWeights(k, m.Eta)[oi2]
				pairs++
				if lane++; lane == 64 {
					flush()
				}
			}
		}
	})
	if lane > 0 {
		flush()
	}
	return rate, pairs
}

// TestRareK2MatchesPairEnumeration is the exactness oracle of the K >= 2
// law: at p = 1e-5, two rounds of k = 2 rare-event sampling must estimate
// PL within 5σ of the reference pair enumeration along single-fault
// trajectories on Steane, Surface and Carbon. Conditioning on two faults
// among the first N fault-free-path sites instead drops the pairs whose
// second fault runs in a correction branch past N — 17–33% of the p²
// mass on these codes — and fails here by far more than 5σ.
func TestRareK2MatchesPairEnumeration(t *testing.T) {
	const p = 1e-5
	ctx := context.Background()
	for _, cs := range rareCodes {
		t.Run(cs.Name, func(t *testing.T) {
			est := NewEstimator(buildProto(t, cs))
			m := noise.Uniform(p)
			res, err := est.AdaptiveModel(ctx, MethodRare, m, 0, 2*BlocksPerRound*BlockShots, 17, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.MinFaults != 2 {
				t.Fatalf("rare request resolved to k = %d, want 2 on a protocol whose single faults all pass", res.MinFaults)
			}
			ref, pairs := refPairRate(t, est, m)
			q := float64(res.Fails) / float64(res.Shots)
			sd := res.CondP * math.Sqrt(q*(1-q)/float64(res.Shots))
			t.Logf("PL/p² = %.2f, pair enumeration (%d pairs) %.2f, σ/p² = %.2f", res.PL/(p*p), pairs, ref/(p*p), sd/(p*p))
			if diff := math.Abs(res.PL - ref); diff > 5*sd {
				t.Fatalf("k = 2 estimate %.6g off the exact pair mass %.6g by %.3g > 5σ = %.3g", res.PL, ref, diff, 5*sd)
			}
		})
	}
}

// TestRareK2MatchesK1 checks the two conditionings against each other at
// p = 1e-3, uniform and biased: k = 1 and k = 2 estimate the same PL, so
// their estimates must agree within a 5σ two-sample bound.
func TestRareK2MatchesK1(t *testing.T) {
	ctx := context.Background()
	for _, cs := range rareCodes {
		est := NewEstimator(buildProto(t, cs))
		for _, m := range []noise.Model{noise.Uniform(1e-3), biasedTestModel(1e-3)} {
			k1, _, err := rareAt(ctx, est, 1, m, 0, 4*BlocksPerRound*BlockShots, 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			k2, _, err := rareAt(ctx, est, 2, m, 0, BlocksPerRound*BlockShots, 6, 2)
			if err != nil {
				t.Fatal(err)
			}
			if k1.Fails == 0 || k2.Fails == 0 || k1.MinFaults != 1 || k2.MinFaults != 2 {
				t.Fatalf("%s %+v: degenerate runs k1 %+v, k2 %+v", cs.Name, m, k1, k2)
			}
			variance := func(r AdaptiveResult) float64 {
				q := float64(r.Fails) / float64(r.Shots)
				return r.CondP * r.CondP * q * (1 - q) / float64(r.Shots)
			}
			sd := math.Sqrt(variance(k1) + variance(k2))
			if diff := math.Abs(k1.PL - k2.PL); diff > 5*sd {
				t.Errorf("%s %+v: k = 1 PL %.6g vs k = 2 PL %.6g (diff %.3g > 5σ = %.3g)", cs.Name, m, k1.PL, k2.PL, diff, 5*sd)
			}
		}
	}
}

// bigCondProb2 is the math/big reference for P(#faults >= 2): the
// complement 1 - P(K = 0) - P(K = 1) at 400-bit precision, with P(K = 1)
// summed over every single fault's trajectory — the cancelling form the
// float64 law avoids, exact enough here.
func bigCondProb2(p *core.Protocol, m noise.Model) float64 {
	const prec = 400
	num := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	one := num(1)
	surv := func(kinds []noise.LocKind) *big.Float {
		out := num(1)
		for _, k := range kinds {
			out.Mul(out, new(big.Float).SetPrec(prec).Sub(one, num(m.Rate(k))))
		}
		return out
	}
	// Exact operator weights: a rounded weight table that sums to 1 - 1e-16
	// would shift P(K = 1), and with it the complement, by far more than
	// the float64 law's error.
	weight := func(kind noise.LocKind, oi int) *big.Float {
		ops := noise.OpsFor(kind)
		z := func(op noise.Fault) *big.Float {
			w := num(1)
			for _, pz := range []bool{op.P1 == noise.PZ, op.P2 == noise.PZ} {
				if pz && kind == noise.Loc2Q {
					w.Mul(w, num(m.Eta))
				}
			}
			return w
		}
		total := num(0)
		for _, op := range ops {
			total.Add(total, z(op))
		}
		return new(big.Float).SetPrec(prec).Quo(z(ops[oi]), total)
	}
	ctr := &noise.Counter{}
	Run(p, ctr)
	rest := new(big.Float).SetPrec(prec).Sub(one, surv(ctr.Kinds))
	refTrajectories(p, m, func(j, oi int, _ float64, traj []noise.LocKind) {
		t := surv(traj[:j])
		t.Mul(t, num(m.Rate(traj[j])))
		t.Mul(t, weight(traj[j], oi))
		t.Mul(t, surv(traj[j+1:]))
		rest.Sub(rest, t)
	})
	out, _ := rest.Float64()
	return out
}

// TestRareCondProb2BigReference pins P(#faults >= 2) — the k = 2
// conditioning weight, summed from log1p/expm1 terms — to its math/big
// reference down to p = 1e-9, where forming it as P(K >= 1) - P(K = 1) in
// float64 would lose every digit.
func TestRareCondProb2BigReference(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Carbon()} {
		est := NewEstimator(buildProto(t, cs))
		for _, p := range []float64{1e-9, 1e-6, 1e-3, 0.05} {
			for _, m := range []noise.Model{noise.Uniform(p), biasedTestModel(p)} {
				got := est.Singles().CondProb(m)
				want := bigCondProb2(est.P, m)
				if rel := math.Abs(got-want) / want; !(rel < 1e-12) {
					t.Errorf("%s %+v: P(K >= 2) = %.17g, big reference %.17g (rel %.2g)", cs.Name, m, got, want, rel)
				}
				if s, err := est.Resolve(MethodRare, m); err != nil || s.MinFaults != 2 || s.CondP != got {
					t.Errorf("%s %+v: Resolve = %+v, %v; want k = 2 with CondP %g", cs.Name, m, s, err, got)
				}
			}
		}
	}
}

// TestRareSinglesMatchInterpreted checks the estimator's single-fault
// table, built on the compiled program, against the interpreted
// executor: the same faults, verdicts and trajectories.
func TestRareSinglesMatchInterpreted(t *testing.T) {
	for _, cs := range rareCodes {
		est := NewEstimator(buildProto(t, cs))
		var want noise.Singles
		refTrajectories(est.P, noise.Uniform(1), func(j, oi int, _ float64, traj []noise.LocKind) {
			plan := noise.NewPlan(map[int]noise.Fault{j: noise.OpsFor(traj[j])[oi]})
			want.Add(j, oi, traj, est.Judge(Run(est.P, plan)))
		})
		got := est.Singles()
		if !got.Pass() || !want.Pass() || got.N != want.N || got.N != len(est.LocationKinds()) {
			t.Fatalf("%s: compiled table pass=%v N=%d, interpreted pass=%v N=%d, want both passing with N=%d",
				cs.Name, got.Pass(), got.N, want.Pass(), want.N, len(est.LocationKinds()))
		}
		for _, m := range []noise.Model{noise.Uniform(1e-3), biasedTestModel(1e-3)} {
			if a, b := got.CondProb(m), want.CondProb(m); a != b {
				t.Errorf("%s %+v: compiled table P(K >= 2) = %g, interpreted %g", cs.Name, m, a, b)
			}
		}
	}
}

// TestRarePrepOnlyResolvesK1 strips a protocol to its preparation circuit,
// where single faults do fail (F[1] > 0): a rare request must resolve to
// k = 1 and sample exactly the k = 1 stream, and an explicit k = 2 runner
// is rejected.
func TestRarePrepOnlyResolvesK1(t *testing.T) {
	full := buildProto(t, code.Steane())
	est := NewEstimator(&core.Protocol{Code: full.Code, Prep: full.Prep})
	ctx := context.Background()
	m := noise.Uniform(1e-3)
	if est.Singles().Pass() {
		t.Fatal("prep-only Steane passes every single fault; the test needs a failing one")
	}
	s, err := est.Resolve(MethodRare, m)
	if err != nil || s.MinFaults != 1 || s.CondP != noise.CondProbModel(m, est.ClassCounts()) {
		t.Fatalf("Resolve = %+v, %v; want k = 1 with the K >= 1 weight", s, err)
	}
	got, gotCounts, err := est.adaptive(ctx, MethodRare, m, 0, 3*BlockShots, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCounts, err := rareAt(ctx, est, 1, m, 0, 3*BlockShots, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	got.ShotsPerSec, want.ShotsPerSec = 0, 0
	if !reflect.DeepEqual(gotCounts, wantCounts) || got != want || got.MinFaults != 1 {
		t.Fatalf("resolved run %+v %+v, k = 1 run %+v %+v", got, gotCounts, want, wantCounts)
	}
	if _, err := est.NewBlockRunner(Sampling{Method: MethodRare, MinFaults: 2}, m); err == nil {
		t.Fatal("k = 2 runner accepted on a protocol with failing single faults")
	}
	if _, err := est.NewBlockRunner(Sampling{Method: MethodRare, MinFaults: 3}, m); err == nil {
		t.Fatal("k = 3 runner accepted")
	}
}

// TestRareK2StreamsPinned pins the k = 2 rare-event streams of the batch
// engine, under uniform and class-biased models, to recorded counts, as
// TestUniformStreamsPinned pins k = 1: a change that moves them has changed
// which fault pairs the K >= 2 law draws. The Steane rows at 5e-3 reach
// second-fault continuations often; the Surface and Carbon rows at 1e-4,
// the benchmark's rare-event rate, are the regime where nearly every
// continuation gap runs past the end of the shot. Every stratum holds at
// least two faults. The protocols are recorded ones (storedProto).
func TestRareK2StreamsPinned(t *testing.T) {
	ctx := context.Background()
	ests := map[string]*Estimator{}
	for _, name := range []string{"Steane", "Surface", "Carbon"} {
		ests[name] = NewEstimator(storedProto(t, name))
	}

	type run struct {
		shots, fails int
		strata       []StratumCount
	}
	classes := noise.Model{P1Q: 3e-3, P2Q: 6e-3, PMeas: 1e-3, Eta: 4}
	classes4 := noise.Model{P1Q: 6e-5, P2Q: 1e-4, PMeas: 2e-5, Eta: 4}
	for _, tc := range []struct {
		code  string
		model noise.Model
		want  run
	}{
		{"Steane", noise.Uniform(5e-3),
			run{16384, 3380, []StratumCount{{W: 2, Shots: 15791, Fails: 3161}, {W: 3, Shots: 576, Fails: 209}, {W: 4, Shots: 16, Fails: 10}, {W: 5, Shots: 1}}}},
		{"Steane", classes,
			run{16384, 1966, []StratumCount{{W: 2, Shots: 15814, Fails: 1844}, {W: 3, Shots: 558, Fails: 120}, {W: 4, Shots: 12, Fails: 2}}}},
		{"Surface", noise.Uniform(1e-4),
			run{16384, 1664, []StratumCount{{W: 2, Shots: 16368, Fails: 1662}, {W: 3, Shots: 16, Fails: 2}}}},
		{"Carbon", noise.Uniform(1e-4),
			run{16384, 3547, []StratumCount{{W: 2, Shots: 16332, Fails: 3531}, {W: 3, Shots: 52, Fails: 16}}}},
		{"Carbon", classes4,
			run{16384, 1931, []StratumCount{{W: 2, Shots: 16340, Fails: 1917}, {W: 3, Shots: 44, Fails: 14}}}},
	} {
		res, counts, err := ests[tc.code].adaptive(ctx, MethodRare, tc.model, 0, 16384, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.MinFaults != 2 {
			t.Fatalf("%s %+v: resolved k = %d, want 2", tc.code, tc.model, res.MinFaults)
		}
		got := run{int(counts.Shots), int(counts.Fails), counts.Strata}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %+v: got %#v, want %#v", tc.code, tc.model, got, tc.want)
		}
	}
}

// TestRareK2ResultConsistency is the k = 2 twin of
// TestRareResultConsistency: CondP is the table's P(#faults >= 2), PL is
// CondP·q, every stratum holds at least two faults and passes Validate
// for k = 2 (and fails it for a k = 3 claim), and the diagnostics are the
// Kish statistics of the strata under the fault-free-path binomial weights
// truncated to w >= 2.
func TestRareK2ResultConsistency(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Surface3()))
	m := noise.Uniform(2e-3)
	res, pooled, err := est.adaptive(context.Background(), MethodRare, m, 0, 50_000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinFaults != 2 || res.CondP != est.Singles().CondProb(m) {
		t.Fatalf("k = %d, CondP %g; want 2 and %g", res.MinFaults, res.CondP, est.Singles().CondProb(m))
	}
	if got := res.CondP * (float64(res.Fails) / float64(res.Shots)); got != res.PL {
		t.Errorf("PL %g != CondP·q = %g", res.PL, got)
	}
	if err := pooled.Validate(Sampling{Method: MethodRare, MinFaults: 2}); err != nil {
		t.Errorf("pooled counts malformed: %v", err)
	}
	if err := pooled.Validate(Sampling{Method: MethodRare, MinFaults: 3}); err == nil {
		t.Error("k = 2 counts validate as k = 3 counts")
	}
	weights := CondWeightsModel(est.ClassCounts(), rareMaxW, m)
	var norm float64
	for w := 2; w <= rareMaxW; w++ {
		norm += weights[w]
	}
	var sumW, sumW2 float64
	for _, s := range pooled.Strata {
		if s.W < 2 {
			t.Fatalf("stratum %+v below k = 2", s)
		}
		w := weights[s.W] / norm // P(K = w | K >= 2) on the fault-free path
		sumW += w
		sumW2 += w * w / float64(s.Shots)
	}
	if want := sumW * sumW / sumW2; math.Abs(res.EffectiveSamples-want) > 1e-9*want {
		t.Errorf("effective samples %g, want the truncated-binomial Kish size %g", res.EffectiveSamples, want)
	}
}
