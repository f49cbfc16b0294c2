package sim

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/noise"
)

func buildBatch(t *testing.T, cs *code.CSS) (*Estimator, *Batch) {
	t.Helper()
	est := NewEstimator(buildProto(t, cs))
	if est.Batch() == nil {
		t.Fatalf("%s: batch engine unavailable", cs.Name)
	}
	return est, est.Batch()
}

// sample runs exactly shots shots in 64-lane words (the final word masked
// down to the remainder, so the count is exact) and returns the failure
// count: the bare batch shot loop, without the block scheduler's reseeding.
func (b *Batch) sample(bs *BatchShot, inj noise.BatchInjector, shots int) int {
	fails := 0
	for done := 0; done < shots; done += 64 {
		live := ^uint64(0)
		if rem := shots - done; rem < 64 {
			live = 1<<uint(rem) - 1
		}
		b.Run(bs, inj, live)
		fails += bits.OnesCount64(b.Judge(bs))
	}
	return fails
}

// LaneOutcome converts one lane of the batch state into the scalar Outcome
// form (allocating; for the cross-check tests).
// Outcome.Sigs is left empty — the batch engine does not retain signature
// history.
func (b *Batch) LaneOutcome(bs *BatchShot, lane int) Outcome {
	bit := uint64(1) << uint(lane)
	out := Outcome{
		Ex:              f2.NewVec(b.n),
		Ez:              f2.NewVec(b.n),
		Triggered:       bs.Triggered&bit != 0,
		UnknownClass:    bs.UnknownClass&bit != 0,
		TerminatedEarly: bs.TerminatedEarly&bit != 0,
	}
	for q := 0; q < b.n; q++ {
		if bs.ex[q]&bit != 0 {
			out.Ex.Flip(q)
		}
		if bs.ez[q]&bit != 0 {
			out.Ez.Flip(q)
		}
	}
	return out
}

// TestBatchMatchesScalarFixedFaults is the fixed-fault-mask cross-check of
// the 64-lane engine: an explicit per-lane fault plan is injected into both
// the scalar interpreted executor (per lane, via noise.Plan) and the batch
// engine (all lanes at once, via noise.BatchPlan), and every lane must come
// out bit-identical — residual frames, branch flags and the Judge verdict.
// The plans cover fault-free lanes, every single-fault location spread
// across lanes, and dense multi-fault lanes that exercise correction
// blocks, hooks, early termination and unknown classes.
func TestBatchMatchesScalarFixedFaults(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()} {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			est, batch := buildBatch(t, cs)
			proto := est.P
			counter := &noise.Counter{}
			Run(proto, counter)
			kinds := counter.Kinds
			n := len(kinds)

			rng := rand.New(rand.NewSource(int64(n)))
			// Several 64-lane words, so every location hosts a fault in some
			// lane and plenty of lanes carry 2+ faults.
			for word := 0; word < 6; word++ {
				plans := map[int]map[int]noise.Fault{}
				for lane := 0; lane < 64; lane++ {
					plan := map[int]noise.Fault{}
					switch {
					case lane == 0 && word == 0:
						// fault-free lane
					case word < 2:
						// single faults walking the location space
						loc := (word*64 + lane) % n
						ops := noise.OpsFor(kinds[loc])
						plan[loc] = ops[lane%len(ops)]
					default:
						// 1–4 random faults per lane
						for k := 0; k <= rng.Intn(4); k++ {
							loc := rng.Intn(n)
							ops := noise.OpsFor(kinds[loc])
							plan[loc] = ops[rng.Intn(len(ops))]
						}
					}
					plans[lane] = plan
				}

				bs := batch.NewShot()
				batch.Run(bs, noise.NewBatchPlan(plans), ^uint64(0))
				verdicts := batch.Judge(bs)

				for lane := 0; lane < 64; lane++ {
					want := Run(proto, noise.NewPlan(plans[lane]))
					got := batch.LaneOutcome(bs, lane)
					if !want.Ex.Equal(got.Ex) || !want.Ez.Equal(got.Ez) {
						t.Fatalf("word %d lane %d: frames differ: scalar %v/%v, batch %v/%v",
							word, lane, want.Ex, want.Ez, got.Ex, got.Ez)
					}
					if want.Triggered != got.Triggered ||
						want.UnknownClass != got.UnknownClass ||
						want.TerminatedEarly != got.TerminatedEarly {
						t.Fatalf("word %d lane %d: branch flags differ: scalar %+v, batch %+v",
							word, lane, want, got)
					}
					if est.Judge(want) != (verdicts>>uint(lane)&1 == 1) {
						t.Fatalf("word %d lane %d: Judge verdicts differ", word, lane)
					}
				}
			}
		})
	}
}

// TestBatchMatchesScalarStatistically pins the sparse-sampled batch engine
// to the compiled scalar engine at matched physical rate: both sample the
// same protocol at p = 0.05 and the two failure proportions must agree
// within a 5-sigma two-proportion bound. (The engines consume RNG
// differently, so bit-identity is impossible — the fixed-fault test above
// covers exactness, this one covers the sampling distribution.)
func TestBatchMatchesScalarStatistically(t *testing.T) {
	est, batch := buildBatch(t, code.Steane())
	const pp = 0.05
	const shots = 60_000

	failsScalar := scalarFails(est, &noise.Depolarizing{P: pp, Rng: rand.New(rand.NewSource(101))}, shots)

	smp := noise.NewSparseSampler(pp, 202)
	bs := batch.NewShot()
	failsBatch := batch.sample(bs, smp, shots)

	p1 := float64(failsScalar) / shots
	p2 := float64(failsBatch) / shots
	pool := (p1 + p2) / 2
	sd := math.Sqrt(2 * pool * (1 - pool) / shots)
	if diff := math.Abs(p1 - p2); diff > 5*sd {
		t.Fatalf("engines disagree: scalar %.5f vs batch %.5f (diff %.5f > 5σ = %.5f)",
			p1, p2, diff, 5*sd)
	}
	if failsScalar == 0 || failsBatch == 0 {
		t.Fatalf("degenerate sample: scalar %d, batch %d fails", failsScalar, failsBatch)
	}
}

// TestBatchPartialWord checks the masked-lane budgeting path: a live mask
// covering r < 64 lanes must leave the dead lanes untouched (no faults, no
// frames, no verdicts) while the live lanes sample normally.
func TestBatchPartialWord(t *testing.T) {
	_, batch := buildBatch(t, code.Steane())
	const live = uint64(1)<<17 - 1
	smp := noise.NewSparseSampler(0.2, 5)
	bs := batch.NewShot()
	for i := 0; i < 50; i++ {
		batch.Run(bs, smp, live)
		if v := batch.Judge(bs); v&^live != 0 {
			t.Fatalf("dead lanes reported verdicts: %x", v&^live)
		}
		if (bs.Triggered|bs.UnknownClass|bs.TerminatedEarly)&^live != 0 {
			t.Fatalf("dead lanes carry branch flags")
		}
		for q, w := range bs.ex {
			if (w|bs.ez[q])&^live != 0 {
				t.Fatalf("dead lanes carry frame bits on qubit %d", q)
			}
		}
	}
}

// TestBatchZeroAllocs asserts the batch engine's steady-state guarantee:
// the 64-shot word loop (Run + Judge on a reused BatchShot) performs zero
// heap allocations, on a one-layer unflagged protocol (Steane) and on a
// two-layer flagged one (Carbon), whose words at p = 0.02 run the class
// match, primary and hook blocks and early termination.
func TestBatchZeroAllocs(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Carbon()} {
		_, batch := buildBatch(t, cs)
		smp := noise.NewSparseSampler(0.02, 9)
		bs := batch.NewShot()
		var fails, terminated int
		allocs := testing.AllocsPerRun(2000, func() {
			batch.Run(bs, smp, ^uint64(0))
			fails += bits.OnesCount64(batch.Judge(bs))
			terminated += bits.OnesCount64(bs.TerminatedEarly)
		})
		if allocs != 0 {
			t.Fatalf("%s: batch word loop allocates %.2f times per word, want 0", cs.Name, allocs)
		}
		t.Logf("%s: %d failures, %d early terminations", cs.Name, fails, terminated)
	}
}

// TestEngineSelection covers the engine report: every estimator names the
// batch engine, the only one that samples, as "batch".
func TestEngineSelection(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	if est.Batch() == nil {
		t.Fatal("Steane did not compile into the batch engine")
	}
	if got := est.EngineInUse().String(); got != "batch" {
		t.Fatalf("engine name %q, want batch", got)
	}
}

// TestNotCompiledRefusedAtOnce gives the estimator a protocol whose Hz has
// rank 30 on 40 qubits, past the dense decoder's bound of 16, so the batch
// engine cannot compile it and nothing samples it. Every entry point must
// return ErrNotCompiled wrapping the error that names the rank, well under
// a second and without building a decoder table: a lookup table of that
// matrix would hold 2^30 syndromes.
func TestNotCompiledRefusedAtOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	hz := f2.NewMat(40)
	for i := 0; i < 30; i++ {
		row := f2.FromSupport(40, i)
		for q := 30; q < 40; q++ {
			if rng.Intn(2) == 1 {
				row.Flip(q)
			}
		}
		hz.MustAppendRow(row)
	}
	p := &core.Protocol{Code: &code.CSS{Name: "rank30", N: 40, Hz: hz}, Prep: circuit.New(40)}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	est := NewEstimator(p)
	if est.Batch() != nil {
		t.Fatal("rank-30 protocol compiled")
	}
	ctx := context.Background()
	m := noise.Uniform(1e-3)
	errs := map[string]error{}
	_, errs["Resolve"] = est.Resolve(MethodAuto, m)
	_, errs["AdaptiveModel"] = est.AdaptiveModel(ctx, MethodAuto, m, 0, 1000, 1, 1)
	_, errs["FaultOrderModel"] = est.FaultOrderModel(ctx, 2, 100, rand.New(rand.NewSource(1)), noise.Uniform(1))
	_, errs["NewBlockRunner"] = est.NewBlockRunner(Sampling{Method: MethodDirect, CondP: 1}, m)
	_, errs["NewBlockRunnerModel"] = est.NewBlockRunnerModel(MethodRare, m)
	_, errs["NonDeterministicStats"] = est.NonDeterministicStats(m, 10, 10, rand.New(rand.NewSource(1)))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	for name, err := range errs {
		if !errors.Is(err, ErrNotCompiled) || !strings.Contains(err.Error(), "rank 30") {
			t.Errorf("%s: err %v, want ErrNotCompiled naming rank 30", name, err)
		}
	}
	if elapsed > time.Second {
		t.Errorf("refusals took %v, want well under a second", elapsed)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusals allocated %d B, want no decoder table", alloc)
	}
}

// TestEmptyMeasurementRefused gives Compile a verification measurement of
// the zero stabilizer, which has no gadget to lay out: it must return an
// error rather than panic.
func TestEmptyMeasurementRefused(t *testing.T) {
	p := buildProto(t, code.Steane())
	lay := *p.Layers[0]
	lay.Verif = append([]core.Measurement(nil), lay.Verif...)
	lay.Verif[0] = core.Measurement{Stab: f2.NewVec(p.Code.N), Kind: lay.Verif[0].Kind}
	q := *p
	q.Layers = []*core.Layer{&lay}
	if _, err := Compile(&q); err == nil || !strings.Contains(err.Error(), "empty support") {
		t.Fatalf("Compile: err %v, want one naming the empty support", err)
	}
}

// TestAdaptiveEnginesAgree runs the adaptive estimator on the batch engine
// and the interpreted reference (interpretedPL) at the same physical rate
// and checks the two estimates agree statistically: the batch engine and
// its sparse sampler draw the distribution the interpreter defines.
func TestAdaptiveEnginesAgree(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	const pp, shots = 0.05, 40_000

	a := interpretedPL(est, noise.Uniform(pp), shots, 31)
	b, err := est.AdaptiveModel(t.Context(), MethodDirect, noise.Uniform(pp), 0, shots, 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Shots != shots {
		t.Fatalf("batch engine ran %d shots, want %d", b.Shots, shots)
	}
	pool := (a + b.PL) / 2
	sd := math.Sqrt(2 * pool * (1 - pool) / shots)
	if diff := math.Abs(a - b.PL); diff > 5*sd {
		t.Fatalf("engines disagree: interpreted %.5f vs batch %.5f (diff %.5f > 5σ = %.5f)",
			a, b.PL, diff, 5*sd)
	}
}

// TestAdaptiveNeverExceedsMaxShots is the regression net for the final-round
// clamp: with a target the sampler cannot reach, the reported shot count
// must land exactly on maxShots — including caps that are not multiples of
// the worker count or the 64-lane word.
func TestAdaptiveNeverExceedsMaxShots(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	for _, maxShots := range []int{10_001, 8192, 63, 1} {
		res, err := est.AdaptiveModel(t.Context(), MethodDirect, noise.Uniform(0.05), 1e-9, maxShots, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shots != maxShots {
			t.Fatalf("maxShots %d: ran %d shots", maxShots, res.Shots)
		}
	}
}

// TestBatchDirectMCDeterministic pins reproducibility: direct sampling on
// the batch engine is a pure function of the caller's seed.
func TestBatchDirectMCDeterministic(t *testing.T) {
	est, _ := buildBatch(t, code.Steane())
	a := directPL(t, est, 0.03, 10_000, 3, 1)
	if b := directPL(t, est, 0.03, 10_000, 3, 1); a != b {
		t.Fatalf("batch direct sampling not deterministic: %g vs %g", a, b)
	}
}

// TestWilsonEdgeCases is the table-driven net for the interval's boundary
// behaviour: zero failures, all failures and empty samples must yield a
// clamped [0,1] interval without dividing by zero.
func TestWilsonEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		fails, shots   int
		wantLo, wantHi float64 // exact endpoint expectations; NaN = unpinned
	}{
		{"no samples", 0, 0, 0, 1},
		{"negative shots", 3, -5, 0, 1},
		{"zero fails", 0, 1000, 0, math.NaN()},
		{"all fails", 1000, 1000, math.NaN(), 1},
		{"one fail", 1, 100, math.NaN(), math.NaN()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := Wilson(tc.fails, tc.shots)
			if math.IsNaN(lo) || math.IsNaN(hi) {
				t.Fatalf("Wilson(%d,%d) produced NaN", tc.fails, tc.shots)
			}
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("Wilson(%d,%d) = [%g, %g] not a clamped interval", tc.fails, tc.shots, lo, hi)
			}
			if !math.IsNaN(tc.wantLo) && lo != tc.wantLo {
				t.Fatalf("lo = %g, want %g", lo, tc.wantLo)
			}
			if !math.IsNaN(tc.wantHi) && hi != tc.wantHi {
				t.Fatalf("hi = %g, want %g", hi, tc.wantHi)
			}
			if tc.shots > 0 {
				ph := float64(tc.fails) / float64(tc.shots)
				if ph < lo || ph > hi {
					t.Fatalf("interval [%g, %g] does not bracket p̂ = %g", lo, hi, ph)
				}
			}
		})
	}
	// Zero failures over n trials: the 95% upper bound is z²/(n+z²) ≈ 0.0038.
	if _, hi := Wilson(0, 1000); hi < 0.003 || hi > 0.005 {
		t.Fatalf("Wilson(0,1000) upper = %g, want ~0.0038", hi)
	}
}
