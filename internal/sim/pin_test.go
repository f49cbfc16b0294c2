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
// on the batch and scalar engines, and the stratified fault-order sampler. A
// uniform noise.Model runs the samplers' single-rate inner paths, so any
// change that moves these counts has changed which faults a uniform estimate
// draws and must show here as a deliberate update.
func TestUniformStreamsPinned(t *testing.T) {
	ctx := context.Background()
	est := NewEstimator(buildProto(t, code.Steane()))
	defer est.SetEngine(EngineAuto)

	type run struct {
		shots, fails int
		strata       []RareStratum
	}
	for _, tc := range []struct {
		engine       Engine
		rare, direct run
	}{
		{EngineBatch,
			run{65536, 721, []RareStratum{{W: 1, Shots: 61849}, {W: 2, Shots: 3557, Fails: 673}, {W: 3, Shots: 124, Fails: 44}, {W: 4, Shots: 6, Fails: 4}}},
			run{shots: 65536, fails: 1105}},
		{EngineScalar,
			run{65536, 806, []RareStratum{{W: 1, Shots: 61644}, {W: 2, Shots: 3748, Fails: 760}, {W: 3, Shots: 142, Fails: 45}, {W: 4, Shots: 2, Fails: 1}}},
			run{shots: 65536, fails: 1126}},
	} {
		if err := est.SetEngine(tc.engine); err != nil {
			t.Fatal(err)
		}
		rare, err := est.RareEventAdaptiveModel(ctx, noise.Uniform(5e-3), 0, 65536, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := run{rare.Shots, rare.Fails, rare.Strata}
		for i := range got.strata {
			got.strata[i].Weight = 0 // closed-form weights are pinned elsewhere
		}
		if !reflect.DeepEqual(got, tc.rare) {
			t.Errorf("%v rare: got %#v, want %#v", tc.engine, got, tc.rare)
		}

		direct, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.02), 0, 65536, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := (run{shots: direct.Shots, fails: direct.Fails}); !reflect.DeepEqual(got, tc.direct) {
			t.Errorf("%v direct: got %#v, want %#v", tc.engine, got, tc.direct)
		}
	}

	fo, err := est.FaultOrderModel(ctx, 3, 2000, rand.New(rand.NewSource(3)), noise.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, 0.155, 0.269}; !reflect.DeepEqual(fo.F, want) {
		t.Errorf("fault-order F = %#v, want %#v", fo.F, want)
	}
}
