package sim

import (
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

func TestNonDetAcceptsCleanRuns(t *testing.T) {
	p := buildProto(t, code.Steane())
	res := RunNonDeterministic(p, func() noise.Injector { return noise.None() }, 5)
	if res.GaveUp || res.Attempts != 1 {
		t.Fatalf("noiseless baseline should accept on attempt 1: %+v", res)
	}
	if !res.Out.Ex.IsZero() || !res.Out.Ez.IsZero() {
		t.Fatal("noiseless accepted state carries residual")
	}
}

func TestNonDetRestartsOnTrigger(t *testing.T) {
	p := buildProto(t, code.Steane())
	// Find a fault that triggers verification; a plan firing it on the
	// first attempt and nothing afterwards must accept on attempt 2.
	counter := &noise.Counter{}
	Run(p, counter)
	var loc int
	var op noise.Fault
	found := false
	for l, kind := range counter.Kinds {
		for _, o := range noise.OpsFor(kind) {
			if Run(p, noise.NewPlan(map[int]noise.Fault{l: o})).Triggered {
				loc, op, found = l, o, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no triggering fault found")
	}
	first := true
	res := RunNonDeterministic(p, func() noise.Injector {
		if first {
			first = false
			return noise.NewPlan(map[int]noise.Fault{loc: op})
		}
		return noise.None()
	}, 5)
	if res.GaveUp || res.Attempts != 2 {
		t.Fatalf("expected acceptance on attempt 2, got %+v", res)
	}
}

func TestNonDetStatsBehaviour(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	rng := rand.New(rand.NewSource(9))
	st := est.NonDeterministicStats(noise.Uniform(0.02), 4000, 100, rng)
	if st.AcceptRate <= 0.5 || st.AcceptRate >= 1 {
		t.Fatalf("acceptance rate %.3f implausible at p=0.02", st.AcceptRate)
	}
	if st.MeanAttempts < 1 || st.MeanAttempts > 2 {
		t.Fatalf("mean attempts %.2f implausible", st.MeanAttempts)
	}
	// Post-selected logical error rate should also be O(p²): comfortably
	// below the physical rate.
	if st.LogicalRate > 0.02 {
		t.Fatalf("post-selected logical rate %.4f above physical rate", st.LogicalRate)
	}
}

func TestDeterministicMatchesBaselineQuality(t *testing.T) {
	// The headline of the paper: the deterministic protocol achieves the
	// same O(p²) error suppression as the repeat-until-success baseline
	// without restarts. Compare orders of magnitude at p = 0.01.
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	rng := rand.New(rand.NewSource(10))
	det := directPL(t, est, 0.01, 60000, 10, 1)
	nd := est.NonDeterministicStats(noise.Uniform(0.01), 30000, 100, rng)
	if det <= 0 || nd.LogicalRate < 0 {
		t.Fatalf("degenerate rates: det=%g nd=%g", det, nd.LogicalRate)
	}
	// Both are quadratically suppressed; the deterministic rate may be a
	// small factor above the post-selected baseline but far below O(p).
	if det > 0.01 {
		t.Fatalf("deterministic rate %.4g not suppressed below p", det)
	}
}

func TestDualCodeProtocol(t *testing.T) {
	// |+>_L preparation via the dual code: synthesize |0>_L of the dual
	// and certify it; the Hadamard conjugation is implicit.
	cs := code.Steane().Dual()
	p := buildProto(t, cs)
	if err := ExhaustiveFaultCheck(p); err != nil {
		t.Fatal(err)
	}
}

func TestShorDualNeedsNoVerification(t *testing.T) {
	// Preparing |+>_L of Shor mirrors |0>_L: by the GHZ-block structure
	// every X error is benign, and the per-block fanout encoder confines Z
	// errors within blocks where they reduce to weight <= 1 as well. The
	// builder proves this and emits a zero-layer protocol — the bare
	// encoder is already fault-tolerant. The exhaustive certificate
	// independently confirms it.
	cs := code.Shor().Dual()
	p := buildProto(t, cs)
	if len(p.Layers) != 0 {
		t.Fatalf("Shor-dual encoder should be FT without verification, got %d layers", len(p.Layers))
	}
	if err := ExhaustiveFaultCheck(p); err != nil {
		t.Fatal(err)
	}
}
