package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/noise"
)

// ctxPollShots is the number of fault sets the references below evaluate
// between context polls.
const ctxPollShots = 64

// refFaultOrder is the interpreted uniform branch of FaultOrderModel as it
// was before the estimator moved onto the batch engine, kept verbatim as the
// reference of TestFaultOrderMatchesInterpreted: every fault set runs one at
// a time through the interpreted executor and Estimator.Judge.
func refFaultOrder(est *Estimator, ctx context.Context, maxW, samples int, rng *rand.Rand, kinds []noise.LocKind) (FaultOrderResult, error) {
	n := len(kinds)
	res := FaultOrderResult{N: n, F: make([]float64, maxW+1), ClassCounts: noise.CountKinds(kinds)}

	if maxW >= 1 {
		// Exhaustive order 1, weighting each location uniformly and each
		// operator uniformly within its location (the E1_1 conditionals).
		var sum float64
		for loc, kind := range kinds {
			if err := ctx.Err(); err != nil {
				return FaultOrderResult{}, err
			}
			ops := noise.OpsFor(kind)
			var x float64
			for _, op := range ops {
				out := Run(est.P, noise.NewPlan(map[int]noise.Fault{loc: op}))
				if est.Judge(out) {
					x++
				}
			}
			sum += x / float64(len(ops))
		}
		res.F[1] = sum / float64(n)
	}

	for w := 2; w <= maxW; w++ {
		var x float64
		for s := 0; s < samples; s++ {
			if s%ctxPollShots == 0 {
				if err := ctx.Err(); err != nil {
					return FaultOrderResult{}, err
				}
			}
			faults := map[int]noise.Fault{}
			for len(faults) < w {
				loc := rng.Intn(n)
				if _, dup := faults[loc]; dup {
					continue
				}
				ops := noise.OpsFor(kinds[loc])
				faults[loc] = ops[rng.Intn(len(ops))]
			}
			out := Run(est.P, noise.NewPlan(faults))
			if est.Judge(out) {
				x++
			}
		}
		res.F[w] = x / float64(samples)
	}
	return res, nil
}

// refFaultOrderModel is the interpreted biased branch of FaultOrderModel as
// it was before the estimator moved onto the batch engine, kept verbatim
// (minus the argument validation, which the callers here always pass).
func refFaultOrderModel(est *Estimator, ctx context.Context, maxW, samples int, rng *rand.Rand, ratio noise.Model) (FaultOrderResult, error) {
	kinds := est.LocationKinds()
	n := len(kinds)
	if ratio.IsUniform() {
		return refFaultOrder(est, ctx, maxW, samples, rng, kinds)
	}
	res := FaultOrderResult{N: n, F: make([]float64, maxW+1), ClassCounts: noise.CountKinds(kinds)}

	// Per-class operator distributions and their cumulative tables, built
	// once for the whole enumeration.
	var opW, opCum [3][]float64
	for k := range opW {
		opW[k] = noise.OpWeights(noise.LocKind(k), ratio.Eta)
		opCum[k] = make([]float64, len(opW[k]))
		cum := 0.0
		for i, w := range opW[k] {
			cum += w
			opCum[k][i] = cum
		}
		opCum[k][len(opCum[k])-1] = 1
	}
	classW := [3]float64{ratio.P1Q, ratio.P2Q, ratio.PMeas}

	if maxW >= 1 {
		// Exhaustive order 1: locations weighted by their class rate,
		// operators by the biased menu weights — the model's single-fault
		// conditionals.
		var sum, totW float64
		for loc, kind := range kinds {
			if err := ctx.Err(); err != nil {
				return FaultOrderResult{}, err
			}
			ops := noise.OpsFor(kind)
			var x float64
			for oi, op := range ops {
				out := Run(est.P, noise.NewPlan(map[int]noise.Fault{loc: op}))
				if est.Judge(out) {
					x += opW[kind][oi]
				}
			}
			sum += classW[kind] * x
			totW += classW[kind]
		}
		res.F[1] = sum / totW
	}

	// Per-class location index lists and the class-selection distribution
	// for the sampled orders.
	var locIdx [3][]int32
	for loc, kind := range kinds {
		locIdx[kind] = append(locIdx[kind], int32(loc))
	}
	var classCum [3]float64
	classTot := 0.0
	for k := range classCum {
		classTot += classW[k] * float64(len(locIdx[k]))
		classCum[k] = classTot
	}

	for w := 2; w <= maxW; w++ {
		var x float64
		for s := 0; s < samples; s++ {
			if s%ctxPollShots == 0 {
				if err := ctx.Err(); err != nil {
					return FaultOrderResult{}, err
				}
			}
			faults := map[int]noise.Fault{}
			for len(faults) < w {
				u := rng.Float64() * classTot
				kind := 0
				// Skip past lighter classes and — at exact cum boundaries —
				// classes that carry no mass at all.
				for kind < 2 && (u > classCum[kind] || classW[kind]*float64(len(locIdx[kind])) == 0) {
					kind++
				}
				idx := locIdx[kind]
				loc := int(idx[rng.Intn(len(idx))])
				if _, dup := faults[loc]; dup {
					continue
				}
				ops := noise.OpsFor(noise.LocKind(kind))
				uo := rng.Float64()
				oi := 0
				for oi < len(ops)-1 && uo > opCum[kind][oi] {
					oi++
				}
				faults[loc] = ops[oi]
			}
			out := Run(est.P, noise.NewPlan(faults))
			if est.Judge(out) {
				x++
			}
		}
		res.F[w] = x / float64(samples)
	}
	return res, nil
}

// faultOrderRatios are the noise ratios of the fault-order differential: the
// paper's uniform model and two biased ones, one of them with a zero-weight
// measurement class.
var faultOrderRatios = []noise.Model{
	noise.Uniform(1),
	{P1Q: 1, P2Q: 2.5, PMeas: 0.5, Eta: 4},
	{P1Q: 0.3, P2Q: 1, PMeas: 0, Eta: 16},
}

// TestFaultOrderPinned pins FaultOrderModel's F vectors to recorded values:
// Carbon under the paper's uniform model and Steane under a class-biased
// ratio with a tilted two-qubit menu, both on recorded protocols
// (storedProto). Any change that moves them has changed which fault sets
// the stratified estimator draws or how it judges them.
func TestFaultOrderPinned(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		code  string
		ratio noise.Model
		want  []float64
	}{
		{"Carbon", noise.Uniform(1), []float64{0, 0, 0.188, 0.3685}},
		{"Steane", noise.Model{P1Q: 1, P2Q: 2.5, PMeas: 0.5, Eta: 4}, []float64{0, 0, 0.0875, 0.188}},
	} {
		est := NewEstimator(storedProto(t, tc.code))
		fo, err := est.FaultOrderModel(ctx, 3, 2000, rand.New(rand.NewSource(11)), tc.ratio)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fo.F, tc.want) {
			t.Errorf("%s %+v: F = %#v, want %#v", tc.code, tc.ratio, fo.F, tc.want)
		}
	}
}

// TestFaultOrderMatchesInterpreted is the differential of the stratified
// estimator: on every catalog code whose protocol synthesizes in test time,
// under the uniform and two biased ratios, for orders 1..4 and sample counts
// that end on full and partial 64-lane words, FaultOrderModel must return
// exactly what the interpreted reference above returns from the same seed.
// Steane is also run stripped of its verification layers: that protocol is
// not fault tolerant, so its F[1] is positive and order 1 is checked on
// failing single faults, not only on an all-zero verdict table.
func TestFaultOrderMatchesInterpreted(t *testing.T) {
	ctx := context.Background()
	codes := []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.CSS11(),
		code.ReedMuller15(), code.Hamming15(), code.Carbon(), code.CSS16()}
	if testing.Short() {
		codes = rareCodes
	}
	seed := int64(0)
	for _, cs := range codes {
		p := buildProto(t, cs)
		ests := []*Estimator{NewEstimator(p)}
		if ests[0].Batch() == nil {
			t.Fatalf("%s: protocol did not compile", cs.Name)
		}
		if cs.Name == code.Steane().Name {
			bare := *p
			bare.Layers = nil
			ests = append(ests, NewEstimator(&bare))
			if fo, err := ests[len(ests)-1].FaultOrderModel(ctx, 1, 1, rand.New(rand.NewSource(1)), noise.Uniform(1)); err != nil || !(fo.F[1] > 0) {
				t.Fatalf("unverified Steane: F = %v, %v; want F[1] > 0", fo.F, err)
			}
		}
		for ei, est := range ests {
			for _, ratio := range faultOrderRatios {
				for maxW := 1; maxW <= 4; maxW++ {
					for _, samples := range []int{1, 63, 64, 65, 300} {
						if maxW == 1 && samples > 1 {
							break // order 1 draws nothing; samples is unused
						}
						seed++
						name := fmt.Sprintf("%s/est%d/%+v/w%d/s%d/seed%d", cs.Name, ei, ratio, maxW, samples, seed)
						want, err := refFaultOrderModel(est, ctx, maxW, samples, rand.New(rand.NewSource(seed)), ratio)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						got, err := est.FaultOrderModel(ctx, maxW, samples, rand.New(rand.NewSource(seed)), ratio)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s:\ngot  %+v\nwant %+v", name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFaultOrderZeroWeightRejected pins the rejection of ratios the
// sampled orders cannot draw from. On Steane (class counts [8 12 1]) a
// ratio weighting only the one-qubit class leaves 8 drawable locations, so
// order 9 must be ErrBadOrder; a ratio with no positive class weight, or
// with a negative, NaN or infinite one, must be ErrBadRate. These calls used
// to loop forever drawing locations, so each runs under a 5 s guard that
// fails the test instead of hanging it.
func TestFaultOrderZeroWeightRejected(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	if got := est.ClassCounts(); got != [3]int{8, 12, 1} {
		t.Fatalf("Steane class counts %v, want [8 12 1]", got)
	}
	call := func(maxW int, ratio noise.Model) (FaultOrderResult, error) {
		t.Helper()
		type result struct {
			fo  FaultOrderResult
			err error
		}
		done := make(chan result, 1)
		go func() {
			fo, err := est.FaultOrderModel(context.Background(), maxW, 10, rand.New(rand.NewSource(1)), ratio)
			done <- result{fo, err}
		}()
		select {
		case r := <-done:
			return r.fo, r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("FaultOrderModel(%d, %+v) did not return within 5 s", maxW, ratio)
			return FaultOrderResult{}, nil
		}
	}
	for _, tc := range []struct {
		maxW  int
		ratio noise.Model
		want  error
	}{
		{9, noise.Model{P1Q: 1, Eta: 1}, ErrBadOrder},
		{2, noise.Model{Eta: 2}, ErrBadRate},
		{1, noise.Uniform(0), ErrBadRate},
		{2, noise.Model{P1Q: 1, P2Q: -1, PMeas: 1, Eta: 1}, ErrBadRate},
		{2, noise.Model{P1Q: 1, P2Q: math.NaN(), PMeas: 1, Eta: 1}, ErrBadRate},
		{2, noise.Model{P1Q: 1, P2Q: math.Inf(1), PMeas: 1, Eta: 1}, ErrBadRate},
	} {
		if _, err := call(tc.maxW, tc.ratio); !errors.Is(err, tc.want) {
			t.Errorf("FaultOrderModel(%d, %+v): err = %v, want %v", tc.maxW, tc.ratio, err, tc.want)
		}
	}
	// Every drawable location is still a legal order, and order 1 weighs
	// only the positive-weight classes.
	fo, err := call(8, noise.Model{P1Q: 1, Eta: 1})
	if err != nil {
		t.Fatalf("order 8 over the 8 one-qubit locations: %v", err)
	}
	if fo.F[1] != 0 {
		t.Fatalf("F[1] = %g, want exactly 0 (FT certificate)", fo.F[1])
	}
}

// TestFaultOrderAllocs is the allocation guard of the stratified estimator:
// its total allocations per call must not grow with the sample count, i.e.
// the sampled orders allocate nothing per fault set.
func TestFaultOrderAllocs(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	est.LocationKinds() // cache the location kinds outside the measurement
	ctx := context.Background()
	for _, ratio := range faultOrderRatios[:2] {
		allocs := func(samples int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := est.FaultOrderModel(ctx, 3, samples, rand.New(rand.NewSource(1)), ratio); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(64), allocs(6400)
		if large > small {
			t.Errorf("%+v: %v allocations at 64 samples, %v at 6400: the sampled orders allocate per fault set", ratio, small, large)
		}
	}
}

// BenchmarkFaultOrder times the stratified estimator at the /estimate
// defaults (orders up to 3, 20000 samples per sampled order) under the
// uniform and a biased ratio.
func BenchmarkFaultOrder(b *testing.B) {
	ctx := context.Background()
	for _, cs := range rareCodes {
		est := NewEstimator(buildProto(b, cs))
		est.LocationKinds()
		for _, ratio := range faultOrderRatios[:2] {
			name := cs.Name + "/uniform"
			if !ratio.IsUniform() {
				name = cs.Name + "/biased"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := est.FaultOrderModel(ctx, 3, 20000, rand.New(rand.NewSource(int64(i))), ratio); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
