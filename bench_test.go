// Package repro benchmarks every experiment of the paper: one benchmark per
// Table I row family (protocol synthesis per code and method) and one per
// Fig. 4 series (noise-simulation throughput and full stratified estimates),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
package repro

import (
	"context"
	"encoding/json"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/decoder"
	"repro/internal/f2"
	"repro/internal/noise"
	"repro/internal/prep"
	"repro/internal/sim"
	"repro/internal/verify"
)

// ---------------------------------------------------------------------------
// Table I: deterministic FT protocol synthesis, one sub-benchmark per code.
// go test -bench 'BenchmarkTable1' regenerates the full set of rows.
// ---------------------------------------------------------------------------

func BenchmarkTable1HeuOpt(b *testing.B) {
	for _, cs := range code.Catalog() {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
				if err != nil {
					b.Fatal(err)
				}
				m := p.ComputeMetrics()
				b.ReportMetric(float64(m.SumCNOT), "ΣCNOT")
				b.ReportMetric(m.AvgCNOT, "∅CNOT")
			}
		})
	}
}

func BenchmarkTable1OptPrep(b *testing.B) {
	// The paper reports Opt rows only for the smaller instances.
	for _, cs := range []*code.CSS{code.Steane(), code.Shor()} {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepOptimal}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1Global(b *testing.B) {
	for _, cs := range []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.CSS11()} {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(context.Background(), cs, core.Config{Verif: core.VerifGlobal, GlobalLimit: 8}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Fig. 4: logical error rate evaluation.
// BenchmarkFig4Shot measures single-shot Monte-Carlo throughput per code;
// BenchmarkFig4Estimate runs the complete stratified estimator per code.
// ---------------------------------------------------------------------------

var protoCache sync.Map // code name -> *core.Protocol

func cachedProtocol(b *testing.B, cs *code.CSS) *core.Protocol {
	b.Helper()
	if p, ok := protoCache.Load(cs.Name); ok {
		return p.(*core.Protocol)
	}
	p, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	if err != nil {
		b.Fatal(err)
	}
	protoCache.Store(cs.Name, p)
	return p
}

func BenchmarkFig4Shot(b *testing.B) {
	for _, cs := range code.Catalog() {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			p := cachedProtocol(b, cs)
			est := sim.NewEstimator(p)
			rng := rand.New(rand.NewSource(1))
			inj := &noise.Depolarizing{P: 0.01, Rng: rng}
			b.ResetTimer()
			fails := 0
			for i := 0; i < b.N; i++ {
				if est.Judge(sim.Run(p, inj)) {
					fails++
				}
			}
			b.ReportMetric(float64(fails)/float64(b.N), "pL@1e-2")
		})
	}
}

// BenchmarkFig4ShotCompiled is BenchmarkFig4Shot on the compiled
// zero-allocation engine: the same per-shot work, with the protocol
// flattened once into a sim.Program and all per-shot state in a reused
// sim.Shot. Run with -benchmem; allocs/op must be 0.
func BenchmarkFig4ShotCompiled(b *testing.B) {
	for _, cs := range code.Catalog() {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			p := cachedProtocol(b, cs)
			prog, err := sim.Compile(p)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			inj := &noise.Depolarizing{P: 0.01, Rng: rng}
			sh := prog.NewShot()
			b.ReportAllocs()
			b.ResetTimer()
			fails := 0
			for i := 0; i < b.N; i++ {
				prog.Run(sh, inj)
				if prog.Judge(sh) {
					fails++
				}
			}
			b.ReportMetric(float64(fails)/float64(b.N), "pL@1e-2")
		})
	}
}

// BenchmarkFig4ShotBatch is BenchmarkFig4ShotCompiled on the 64-lane
// bit-parallel engine: one op is one 64-shot word (so ns/op is ~64× the
// per-shot cost — divide by 64 to compare against the scalar benchmarks,
// or read the shots/s metric). Run with -benchmem; allocs/op must be 0.
func BenchmarkFig4ShotBatch(b *testing.B) {
	for _, cs := range code.Catalog() {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			p := cachedProtocol(b, cs)
			prog, err := sim.Compile(p)
			if err != nil {
				b.Fatal(err)
			}
			batch, err := sim.NewBatch(prog)
			if err != nil {
				b.Fatal(err)
			}
			smp := noise.NewSparseSampler(0.01, 1)
			bs := batch.NewShot()
			b.ReportAllocs()
			b.ResetTimer()
			fails := 0
			for i := 0; i < b.N; i++ {
				batch.Run(bs, smp, ^uint64(0))
				fails += bits.OnesCount64(batch.Judge(bs))
			}
			b.ReportMetric(float64(fails)/float64(64*b.N), "pL@1e-2")
			b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "shots/s")
		})
	}
}

// BenchmarkFig4Adaptive measures a complete adaptive estimate (compiled
// engine, parallel workers, 10% RSE target) — the unit of work one Fig. 4
// Monte-Carlo point costs under the adaptive stopping rule.
func BenchmarkFig4Adaptive(b *testing.B) {
	p := cachedProtocol(b, code.Steane())
	est := sim.NewEstimator(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := est.AdaptiveModel(context.Background(), sim.MethodDirect, noise.Uniform(0.02), 0.1, 5_000_000, int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ShotsPerSec, "shots/s")
		b.ReportMetric(float64(res.Shots), "shots")
	}
}

// BenchmarkFig4RareEvent measures a complete rare-event adaptive estimate at
// p = 1e-4 (10% RSE target) — the regime where direct Monte-Carlo needs ~10^9
// shots per point and the >= 1-fault conditional estimator is the only way a
// Fig. 4 sweep extends below the direct floor in interactive time.
func BenchmarkFig4RareEvent(b *testing.B) {
	p := cachedProtocol(b, code.Steane())
	est := sim.NewEstimator(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := est.RareEventAdaptiveModel(context.Background(), noise.Uniform(1e-4), 0.1, 50_000_000, int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Fails == 0 {
			b.Fatal("rare-event run observed no failures")
		}
		b.ReportMetric(res.ShotsPerSec, "shots/s")
		b.ReportMetric(float64(res.Shots), "shots")
		b.ReportMetric(res.PL*1e9, "pL·1e9")
	}
}

func BenchmarkFig4Estimate(b *testing.B) {
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()} {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			p := cachedProtocol(b, cs)
			est := sim.NewEstimator(p)
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := est.FaultOrderModel(context.Background(), 2, 2000, rng, noise.Uniform(1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.RateModel(noise.Uniform(1e-3))*1e6, "pL@1e-3·1e6")
			}
		})
	}
}

// BenchmarkFTCertificate measures the exhaustive single-fault check that
// backs the fault-tolerance claim of every Fig. 4 series.
func BenchmarkFTCertificate(b *testing.B) {
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()} {
		cs := cs
		b.Run(cs.Name, func(b *testing.B) {
			p := cachedProtocol(b, cs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.ExhaustiveFaultCheck(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md): encoding and protocol design choices.
// ---------------------------------------------------------------------------

// BenchmarkAblationPairPruning compares correction synthesis with and
// without the precomputed incompatible-pair clauses.
func BenchmarkAblationPairPruning(b *testing.B) {
	cs := code.ReedMuller15()
	circ := prep.Heuristic(cs)
	ex := verify.DangerousErrors(cs, circ, code.ErrX)
	ver, err := verify.Synthesize(context.Background(), cs.DetectionGroup(code.ErrX), ex)
	if err != nil {
		b.Fatal(err)
	}
	class := triggeredClass(cs, circ, ver)
	for _, tc := range []struct {
		name string
		opt  correct.Options
	}{
		{"with-pruning", correct.Options{}},
		{"no-pruning", correct.Options{NoPairPruning: true}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := correct.Synthesize(context.Background(), cs.DetectionGroup(code.ErrX), cs.ReductionGroup(code.ErrX), class, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFlagAll compares the hook strategy: CNOT-order defusal
// plus selective flags (paper) versus flagging every measurement.
func BenchmarkAblationFlagAll(b *testing.B) {
	cs := code.Carbon()
	for _, tc := range []struct {
		name    string
		flagAll bool
	}{
		{"selective-flags", false},
		{"flag-all", true},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := core.Build(context.Background(), cs, core.Config{FlagAll: tc.flagAll})
				if err != nil {
					b.Fatal(err)
				}
				m := p.ComputeMetrics()
				b.ReportMetric(float64(m.SumAnc), "ΣANC")
				b.ReportMetric(float64(m.SumCNOT), "ΣCNOT")
			}
		})
	}
}

// BenchmarkAblationCardinality compares the three at-most-k encodings
// (pairwise at-most-one, sequential counter, totalizer) on a representative
// instance.
func BenchmarkAblationCardinality(b *testing.B) {
	build := func(kind string) (ok bool) {
		bd := cnf.NewBuilder()
		xs := bd.NewVars(24)
		switch kind {
		case "pairwise":
			bd.AtMostOne(xs...)
		case "seq-counter":
			bd.AtMostK(xs, 1)
		case "totalizer":
			bd.AtMostKTotalizer(xs, 1)
		}
		bd.AtLeastK(xs, 1)
		sat, err := bd.Solve()
		return err == nil && sat
	}
	for _, kind := range []string{"pairwise", "seq-counter", "totalizer"} {
		kind := kind
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !build(kind) {
					b.Fatal("instance should be SAT")
				}
			}
		})
	}
}

// BenchmarkPrepSynthesis compares the heuristic and optimal encoders.
func BenchmarkPrepSynthesis(b *testing.B) {
	b.Run("heuristic-tesseract", func(b *testing.B) {
		cs := code.Tesseract()
		for i := 0; i < b.N; i++ {
			prep.Heuristic(cs)
		}
	})
	b.Run("optimal-steane", func(b *testing.B) {
		cs := code.Steane()
		for i := 0; i < b.N; i++ {
			c, err := prep.Optimal(context.Background(), cs, 0)
			if err != nil {
				b.Fatal(err)
			}
			if c == nil {
				b.Fatal("optimal synthesis gave up")
			}
		}
	})
}

// triggeredClass reproduces the error class of the first verification branch
// (shared helper for ablation benchmarks): all X coset representatives with
// odd overlap with the first verification measurement, plus the zero error.
func triggeredClass(cs *code.CSS, circ *circuit.Circuit, ver *verify.Result) []f2.Vec {
	stab := ver.Stabs[0]
	seen := map[string]bool{}
	class := []f2.Vec{f2.NewVec(cs.N)}
	seen[class[0].Key()] = true
	for _, ft := range circ.SingleFaults() {
		if ft.Final.X.IsZero() {
			continue
		}
		rep := cs.CosetRep(code.ErrX, ft.Final.X)
		if stab.Dot(rep) != 1 || seen[rep.Key()] {
			continue
		}
		seen[rep.Key()] = true
		class = append(class, rep)
	}
	return class
}

// ---------------------------------------------------------------------------
// Perf trajectory: TestBenchTrajectory measures the Fig. 4 shot loop on the
// interpreted executor (the pre-compilation baseline), the PR 4 compiled
// scalar engine and the PR 5 64-lane batch engine, and records shots/sec
// and allocs/shot to the JSON file named by the BENCH_JSON environment
// variable (skipped when unset). CI runs it on every push so the trajectory
// of the hot path is pinned in-repo; the committed BENCH_pr5.json is this
// file as measured when the batch engine landed.
// ---------------------------------------------------------------------------

type benchEntry struct {
	ShotsPerSec   float64 `json:"shots_per_sec"`
	NsPerShot     float64 `json:"ns_per_shot"`
	AllocsPerShot float64 `json:"allocs_per_shot"`
}

// measureShots normalizes a benchmark to per-shot figures; shotsPerOp is 1
// for the scalar engines and 64 for the batch engine's word loop.
func measureShots(shotsPerOp int, f func(b *testing.B)) benchEntry {
	r := testing.Benchmark(f)
	return benchEntry{
		ShotsPerSec:   float64(r.N*shotsPerOp) / r.T.Seconds(),
		NsPerShot:     float64(r.NsPerOp()) / float64(shotsPerOp),
		AllocsPerShot: float64(r.AllocsPerOp()) / float64(shotsPerOp),
	}
}

func TestBenchTrajectory(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("set BENCH_JSON=<path> to record the perf trajectory")
	}
	const pp = 0.01
	codes := []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()}
	type tri struct {
		Baseline benchEntry `json:"baseline"` // interpreted Run + lookup Judge (pre-PR4)
		Compiled benchEntry `json:"compiled"` // PR 4 scalar sim.Program
		Batch    benchEntry `json:"batch"`    // PR 5 64-lane sim.Batch
		// CompiledSpeedup is compiled vs baseline; BatchSpeedup is batch vs
		// compiled — each PR's engine against the previous ceiling.
		CompiledSpeedup float64 `json:"compiled_speedup"`
		BatchSpeedup    float64 `json:"batch_speedup"`
	}
	// rareEntry is the PR 6 time-to-solution record: a full rare-event
	// adaptive estimate at p=1e-4 to 10% RSE, against the projected cost of
	// reaching the same precision with direct Monte-Carlo on the measured
	// batch engine (a direct run needs ~1/(rse²·pL) shots, which at
	// pL ~ 1e-7 is out of interactive reach — hence projected, not run).
	type rareEntry struct {
		Seconds     float64 `json:"seconds"`
		Shots       int     `json:"shots"`
		ShotsPerSec float64 `json:"shots_per_sec"`
		PL          float64 `json:"pl"`
		RSE         float64 `json:"rse"`
		EffSamples  float64 `json:"effective_samples"`
		// DirectShots/DirectSeconds are the projected direct-MC cost of the
		// same target RSE at the measured batch throughput; Speedup is
		// DirectSeconds over Seconds.
		DirectShots   float64 `json:"projected_direct_shots"`
		DirectSeconds float64 `json:"projected_direct_seconds"`
		Speedup       float64 `json:"speedup"`
	}
	const (
		rareP   = 1e-4
		rareRSE = 0.1
	)
	result := struct {
		PR        int                  `json:"pr"`
		Metric    string               `json:"metric"`
		DirectMC  map[string]tri       `json:"direct_mc"`
		RareEvent map[string]rareEntry `json:"rare_event"`
	}{
		PR:        6,
		Metric:    "Fig. 4 DirectMC shot loop at p=1e-2; rare-event time-to-solution at p=1e-4, 10% RSE",
		DirectMC:  map[string]tri{},
		RareEvent: map[string]rareEntry{},
	}

	for _, cs := range codes {
		p, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
		if err != nil {
			t.Fatal(err)
		}
		est := sim.NewEstimator(p)
		prog := est.Program()
		if prog == nil {
			t.Fatalf("%s: protocol failed to compile", cs.Name)
		}
		batch := est.Batch()
		if batch == nil {
			t.Fatalf("%s: batch engine unavailable", cs.Name)
		}
		// The baseline reproduces the pre-compilation path exactly:
		// interpreted Run plus the seed's lookup-table Judge. (The current
		// Estimator.Judge shares the compiled engine's dense decoder, so
		// using it here would flatter the baseline.)
		dec := decoder.NewLookup(p.Code.Hz)
		judge := func(out sim.Outcome) bool {
			ex := out.Ex.Xor(dec.Decode(out.Ex))
			for i := 0; i < p.Code.Lz.Rows(); i++ {
				if ex.Dot(p.Code.Lz.Row(i)) == 1 {
					return true
				}
			}
			return false
		}
		baseline := measureShots(1, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			inj := &noise.Depolarizing{P: pp, Rng: rng}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if judge(sim.Run(p, inj)) {
					_ = i
				}
			}
		})
		compiled := measureShots(1, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			inj := &noise.Depolarizing{P: pp, Rng: rng}
			sh := prog.NewShot()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog.Run(sh, inj)
				prog.Judge(sh)
			}
		})
		batchEnt := measureShots(64, func(b *testing.B) {
			smp := noise.NewSparseSampler(pp, 1)
			bs := batch.NewShot()
			b.ReportAllocs()
			fails := 0
			for i := 0; i < b.N; i++ {
				batch.Run(bs, smp, ^uint64(0))
				fails += bits.OnesCount64(batch.Judge(bs))
			}
		})
		result.DirectMC[cs.Name] = tri{
			Baseline:        baseline,
			Compiled:        compiled,
			Batch:           batchEnt,
			CompiledSpeedup: compiled.ShotsPerSec / baseline.ShotsPerSec,
			BatchSpeedup:    batchEnt.ShotsPerSec / compiled.ShotsPerSec,
		}
		t.Logf("%s: baseline %.0f shots/s, compiled %.0f shots/s (%.2fx), batch %.0f shots/s (%.2fx over compiled; %.1f allocs)",
			cs.Name, baseline.ShotsPerSec,
			compiled.ShotsPerSec, compiled.ShotsPerSec/baseline.ShotsPerSec,
			batchEnt.ShotsPerSec, batchEnt.ShotsPerSec/compiled.ShotsPerSec,
			batchEnt.AllocsPerShot)

		// PR 6: rare-event time-to-solution at p=1e-4. One timed adaptive run
		// per code; single-worker so the wall-clock figure is scheduling-free.
		start := time.Now()
		rr, err := est.RareEventAdaptiveModel(context.Background(), noise.Uniform(rareP), rareRSE, 100_000_000, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		secs := time.Since(start).Seconds()
		directShots := 1 / (rareRSE * rareRSE * rr.PL)
		directSecs := directShots / batchEnt.ShotsPerSec
		result.RareEvent[cs.Name] = rareEntry{
			Seconds:       secs,
			Shots:         rr.Shots,
			ShotsPerSec:   rr.ShotsPerSec,
			PL:            rr.PL,
			RSE:           rr.RSE,
			EffSamples:    rr.EffectiveSamples,
			DirectShots:   directShots,
			DirectSeconds: directSecs,
			Speedup:       directSecs / secs,
		}
		t.Logf("%s rare-event: pL=%.3g (rse %.3f) in %.2fs / %d shots; projected direct: %.2g shots, %.0fs (%.0fx)",
			cs.Name, rr.PL, rr.RSE, secs, rr.Shots, directShots, directSecs, directSecs/secs)
	}

	// Guard the trajectory, not just record it. The committed BENCH_pr5.json
	// holds the real measured speedups (>= 3x batch-over-compiled on every
	// family when the engine landed); the 2x floors here are deliberately
	// conservative so noisy shared CI runners don't flake, while a
	// regression that loses either engine's advantage still fails the build.
	steane := result.DirectMC["Steane"]
	if steane.Compiled.AllocsPerShot != 0 {
		t.Errorf("compiled Steane shot loop allocates %.1f/shot, want 0", steane.Compiled.AllocsPerShot)
	}
	if steane.CompiledSpeedup < 2 {
		t.Errorf("compiled Steane speedup %.2fx below the 2x regression floor", steane.CompiledSpeedup)
	}
	for _, cs := range codes {
		r := result.DirectMC[cs.Name]
		if r.Batch.AllocsPerShot != 0 {
			t.Errorf("batch %s word loop allocates %.2f/shot, want 0", cs.Name, r.Batch.AllocsPerShot)
		}
		if r.BatchSpeedup < 2 {
			t.Errorf("batch %s speedup %.2fx over compiled below the 2x regression floor", cs.Name, r.BatchSpeedup)
		}
		// The rare-event estimator's advantage at p=1e-4 is the conditioning
		// probability's inverse, ~1/(N·p) ~ 10^2-10^3 on these codes; a 10x
		// floor leaves a wide margin for runner noise while still failing the
		// build if conditional sampling ever loses its point.
		re := result.RareEvent[cs.Name]
		if re.RSE > rareRSE {
			t.Errorf("rare-event %s stopped at RSE %.3f, above the %.2f target", cs.Name, re.RSE, rareRSE)
		}
		if !(re.PL > 0) {
			t.Errorf("rare-event %s estimated pL = %g, want > 0", cs.Name, re.PL)
		}
		if re.Speedup < 10 {
			t.Errorf("rare-event %s time-to-solution speedup %.1fx below the 10x regression floor", cs.Name, re.Speedup)
		}
	}

	buf, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
