package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

// TestUniformStreamsPinned pins the uniform-model RNG streams of the
// estimator surface to recorded values: rare-event and direct adaptive runs
// on the batch engine, and the stratified fault-order sampler. A uniform
// noise.Model runs the samplers' single-rate inner paths, so any change that
// moves these counts has changed which faults a uniform estimate draws and
// must show here as a deliberate update.
func TestUniformStreamsPinned(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))

	type run struct {
		shots, fails int
		strata       []StratumCount
	}
	_, rare, err := rareAt(ctx, est, 1, noise.Uniform(5e-3), 0, 65536, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := run{int(rare.Shots), int(rare.Fails), rare.Strata}
	if want := (run{65536, 715, []StratumCount{{W: 1, Shots: 61851}, {W: 2, Shots: 3553, Fails: 670}, {W: 3, Shots: 126, Fails: 41}, {W: 4, Shots: 6, Fails: 4}}}); !reflect.DeepEqual(got, want) {
		t.Errorf("rare: got %#v, want %#v", got, want)
	}

	direct, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.02), 0, 65536, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := (run{shots: direct.Shots, fails: direct.Fails}), (run{shots: 65536, fails: 1083}); !reflect.DeepEqual(got, want) {
		t.Errorf("direct: got %#v, want %#v", got, want)
	}

	fo, err := est.FaultOrderModel(ctx, 3, 2000, rand.New(rand.NewSource(3)), noise.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, 0.155, 0.269}; !reflect.DeepEqual(fo.F, want) {
		t.Errorf("fault-order F = %#v, want %#v", fo.F, want)
	}
}

// TestModelStreamsPinned is the per-class twin of TestUniformStreamsPinned:
// rare-event and direct adaptive runs on Steane under a class-biased model
// (distinct class rates: one skip or conditional chain per class) and under
// a uniform-rate model with a biased two-qubit menu (one chain, weighted
// operator draws). The recorded counts pin which faults each per-class path
// draws.
func TestModelStreamsPinned(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))

	type run struct {
		shots, fails int
		strata       []StratumCount
	}
	classes := noise.Model{P1Q: 3e-3, P2Q: 6e-3, PMeas: 1e-3, Eta: 4}
	menu := noise.Model{P1Q: 3e-3, P2Q: 3e-3, PMeas: 3e-3, Eta: 8}
	for _, tc := range []struct {
		model        noise.Model
		rare, direct run
	}{
		{classes,
			run{65536, 391, []StratumCount{{W: 1, Shots: 62215}, {W: 2, Shots: 3197, Fails: 366}, {W: 3, Shots: 121, Fails: 24}, {W: 4, Shots: 3, Fails: 1}}},
			run{shots: 65536, fails: 40}},
		{menu,
			run{65536, 205, []StratumCount{{W: 1, Shots: 63304}, {W: 2, Shots: 2185, Fails: 196}, {W: 3, Shots: 46, Fails: 9}, {W: 4, Shots: 1}}},
			run{shots: 65536, fails: 5}},
	} {
		_, rare, err := rareAt(ctx, est, 1, tc.model, 0, 65536, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := run{int(rare.Shots), int(rare.Fails), rare.Strata}
		if !reflect.DeepEqual(got, tc.rare) {
			t.Errorf("%+v rare: got %#v, want %#v", tc.model, got, tc.rare)
		}

		direct, err := est.AdaptiveModel(ctx, MethodDirect, tc.model, 0, 65536, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := (run{shots: direct.Shots, fails: direct.Fails}); !reflect.DeepEqual(got, tc.direct) {
			t.Errorf("%+v direct: got %#v, want %#v", tc.model, got, tc.direct)
		}
	}
}
