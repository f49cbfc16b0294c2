package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

// assertSameOutcome compares a compiled-engine outcome to an interpreted
// one bit for bit: residual frames, per-layer signatures and branch flags.
func assertSameOutcome(t *testing.T, label string, want, got Outcome) {
	t.Helper()
	if !want.Ex.Equal(got.Ex) || !want.Ez.Equal(got.Ez) {
		t.Fatalf("%s: frames differ: run %v/%v, program %v/%v",
			label, want.Ex, want.Ez, got.Ex, got.Ez)
	}
	if len(want.Sigs) != len(got.Sigs) {
		t.Fatalf("%s: layer counts differ (%d vs %d)", label, len(want.Sigs), len(got.Sigs))
	}
	for li := range want.Sigs {
		if want.Sigs[li] != got.Sigs[li] {
			t.Fatalf("%s layer %d: run sig %v, program sig %v", label, li+1, want.Sigs[li], got.Sigs[li])
		}
	}
	if want.Triggered != got.Triggered || want.UnknownClass != got.UnknownClass ||
		want.TerminatedEarly != got.TerminatedEarly {
		t.Fatalf("%s: branch flags differ: run %+v, program %+v", label, want, got)
	}
}

// TestProgramMatchesRunSingleFaults pins the compiled engine to the
// interpreted executor over the complete single-fault space: for every
// location and every operator, both must leave bit-identical frames,
// signatures and branch flags.
func TestProgramMatchesRunSingleFaults(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3()} {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			proto := buildProto(t, cs)
			prog, err := Compile(proto)
			if err != nil {
				t.Fatal(err)
			}
			counter := &noise.Counter{}
			Run(proto, counter)
			sh := prog.NewShot()
			for loc, kind := range counter.Kinds {
				for _, op := range noise.OpsFor(kind) {
					plan := map[int]noise.Fault{loc: op}
					want := Run(proto, noise.NewPlan(plan))
					prog.Run(sh, noise.NewPlan(plan))
					assertSameOutcome(t, cs.Name, want, prog.Outcome(sh))
				}
			}
		})
	}
}

// TestProgramMatchesRunUnderNoise extends the cross-check to full
// depolarizing streams: with one shared seed the two engines consume the
// RNG in the same location order, so every shot must agree bit for bit —
// including the Judge verdict.
func TestProgramMatchesRunUnderNoise(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	prog := est.Program()
	if prog == nil {
		t.Fatal("Steane protocol failed to compile")
	}
	const pp, shots = 0.05, 3000
	rngRun := rand.New(rand.NewSource(77))
	rngProg := rand.New(rand.NewSource(77))
	injRun := &noise.Depolarizing{P: pp, Rng: rngRun}
	injProg := &noise.Depolarizing{P: pp, Rng: rngProg}
	sh := prog.NewShot()
	for s := 0; s < shots; s++ {
		want := Run(p, injRun)
		prog.Run(sh, injProg)
		assertSameOutcome(t, "shot", want, prog.Outcome(sh))
		if est.Judge(want) != prog.Judge(sh) {
			t.Fatalf("shot %d: Judge verdicts differ", s)
		}
	}
}

// goldenSteaneFails is the failure count of 4000 fixed-seed shots at
// p = 0.02 on the Steane protocol. The three scalar engines — interpreted
// frame executor, compiled program and exact stabilizer tableau — share one
// RNG stream and must reproduce it exactly; a change means the sampled
// distribution moved.
const goldenSteaneFails = 43

// goldenSteaneBatchFails is the fourth engine's pin: the 64-lane batch
// engine consumes its (sparse, skip-sampled) stream differently, so it has
// its own fixed-seed count. The 2M-shot bias probe puts the true rate near
// 0.0165, so both 43 and 64 are ordinary draws of Binomial(4000, 0.0165);
// the golden test additionally bounds the batch count against that rate.
const goldenSteaneBatchFails = 64

func TestGoldenRatesFourEngines(t *testing.T) {
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

	countRun := 0
	inj := &noise.Depolarizing{P: pp, Rng: rand.New(rand.NewSource(seed))}
	for s := 0; s < shots; s++ {
		if est.Judge(Run(p, inj)) {
			countRun++
		}
	}

	countProg := 0
	inj = &noise.Depolarizing{P: pp, Rng: rand.New(rand.NewSource(seed))}
	sh := prog.NewShot()
	for s := 0; s < shots; s++ {
		prog.Run(sh, inj)
		if prog.Judge(sh) {
			countProg++
		}
	}

	countTab := 0
	inj = &noise.Depolarizing{P: pp, Rng: rand.New(rand.NewSource(seed))}
	for s := 0; s < shots; s++ {
		if est.Judge(RunTableau(p, inj)) {
			countTab++
		}
	}

	smp := noise.NewSparseSampler(pp, seed)
	countBatch := batch.sample(batch.NewShot(), smp, shots)

	if countRun != countProg || countRun != countTab {
		t.Fatalf("engines disagree: run=%d program=%d tableau=%d", countRun, countProg, countTab)
	}
	if countRun != goldenSteaneFails {
		t.Fatalf("golden rate moved: %d fails, want %d", countRun, goldenSteaneFails)
	}
	if countBatch != goldenSteaneBatchFails {
		t.Fatalf("batch golden rate moved: %d fails, want %d", countBatch, goldenSteaneBatchFails)
	}
	// Sanity-bound the batch draw against the measured true rate (~0.0165):
	// 5 sigma of Binomial(4000, 0.0165) is ±40.
	if mean := 0.0165 * shots; math.Abs(float64(countBatch)-mean) > 40 {
		t.Fatalf("batch count %d implausibly far from the %.0f-fail expectation", countBatch, mean)
	}
}

// TestProgramZeroAllocs asserts the headline property of the compiled
// engine: the steady-state shot loop (Run + Judge on a reused Shot) does
// zero heap allocations per shot.
func TestProgramZeroAllocs(t *testing.T) {
	p := buildProto(t, code.Steane())
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	inj := &noise.Depolarizing{P: 0.02, Rng: rng}
	sh := prog.NewShot()
	fails := 0
	allocs := testing.AllocsPerRun(2000, func() {
		prog.Run(sh, inj)
		if prog.Judge(sh) {
			fails++
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled shot loop allocates %.2f times per shot, want 0", allocs)
	}
}

// TestEstimatorValidation is the table-driven regression net for the
// estimator bugfix sweep: every previously-NaN or out-of-range input must
// now return its typed error.
func TestEstimatorValidation(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	ctx := t.Context()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	n := Locations(p)
	direct := func(shots, workers int) error {
		_, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.01), 0, shots, 1, workers)
		return err
	}

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"DirectMC zero shots", func() error { return direct(0, 1) }, ErrBadShots},
		{"DirectMC negative shots", func() error { return direct(-5, 1) }, ErrBadShots},
		{"DirectMCParallel zero shots", func() error { return direct(0, 2) }, ErrBadShots},
		{"DirectMCParallel negative shots", func() error { return direct(-1, 2) }, ErrBadShots},
		{"Adaptive zero cap", func() error {
			_, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.01), 0.1, 0, 1, 2)
			return err
		}, ErrBadShots},
		{"Adaptive negative target", func() error {
			_, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.01), -0.5, 100, 1, 2)
			return err
		}, ErrBadTarget},
		{"Adaptive target >= 1", func() error {
			_, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.01), 1, 100, 1, 2)
			return err
		}, ErrBadTarget},
		{"FaultOrder zero samples", func() error { _, err := est.FaultOrderModel(ctx, 2, 0, rng(), noise.Uniform(1)); return err }, ErrBadSamples},
		{"FaultOrder negative samples", func() error { _, err := est.FaultOrderModel(ctx, 3, -10, rng(), noise.Uniform(1)); return err }, ErrBadSamples},
		{"FaultOrder negative order", func() error { _, err := est.FaultOrderModel(ctx, -1, 100, rng(), noise.Uniform(1)); return err }, ErrBadOrder},
		{"FaultOrder order above N", func() error { _, err := est.FaultOrderModel(ctx, n+1, 100, rng(), noise.Uniform(1)); return err }, ErrBadOrder},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	// The boundary cases stay valid: samples is irrelevant below order 2,
	// and maxW == N is the largest legal order.
	if _, err := est.FaultOrderModel(ctx, 1, 0, rng(), noise.Uniform(1)); err != nil {
		t.Fatalf("maxW 1 with 0 samples should be valid: %v", err)
	}
}

// TestDirectMCParallelWorkerClamp pins the clamp fix: more workers than
// blocks clamps to one block per worker, and the result stays the one a
// smaller pool computes.
func TestDirectMCParallelWorkerClamp(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	clamped := directPL(t, est, 0.1, 3, 11, 64)
	if explicit := directPL(t, est, 0.1, 3, 11, 3); clamped != explicit {
		t.Fatalf("workers=64 shots=3 gave %g, want the workers=3 result %g", clamped, explicit)
	}
}

// TestDirectMCAdaptive covers the adaptive stopping rule: an easy target
// stops well before the cap with the target met, an impossible target runs
// to the cap exactly, and fixed (seed, workers) reproduce bit-identically.
func TestDirectMCAdaptive(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	ctx := t.Context()

	res, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.05), 0.2, 2_000_000, 21, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fails == 0 || res.RSE > 0.2 {
		t.Fatalf("easy target not met: %+v", res)
	}
	if res.Shots >= 2_000_000 {
		t.Fatalf("easy target consumed the whole cap: %d shots", res.Shots)
	}
	if !(res.CILo <= res.PL && res.PL <= res.CIHi) {
		t.Fatalf("Wilson interval [%g, %g] does not bracket %g", res.CILo, res.CIHi, res.PL)
	}
	if res.ShotsPerSec <= 0 {
		t.Fatalf("throughput not reported: %+v", res)
	}

	capped, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.05), 1e-6, 10_000, 21, 4)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Shots != 10_000 {
		t.Fatalf("impossible target should exhaust the cap: ran %d of 10000", capped.Shots)
	}

	a, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.05), 0.3, 500_000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.05), 0.3, 500_000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.PL != b.PL || a.Shots != b.Shots || a.Fails != b.Fails {
		t.Fatalf("adaptive run not deterministic: %+v vs %+v", a, b)
	}
}

// TestWilson spot-checks the confidence interval against known values.
func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = [%g, %g], want [0, 1]", lo, hi)
	}
	// Zero failures in n trials: the 95% upper bound is ~ 3.84/(n+3.84).
	lo, hi = Wilson(0, 1000)
	if lo != 0 {
		t.Fatalf("Wilson(0,1000) lower = %g, want 0", lo)
	}
	if hi < 0.003 || hi > 0.005 {
		t.Fatalf("Wilson(0,1000) upper = %g, want ~0.0038", hi)
	}
	// Symmetric case: 500/1000 brackets 0.5 tightly and symmetrically.
	lo, hi = Wilson(500, 1000)
	if lo >= 0.5 || hi <= 0.5 || (0.5-lo)-(hi-0.5) > 1e-12 {
		t.Fatalf("Wilson(500,1000) = [%g, %g]", lo, hi)
	}
}
