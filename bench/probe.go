package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/dftsp"
	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/jobs"
	"repro/internal/noise"
	"repro/internal/prep"
	"repro/internal/shardrpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/verify"
)

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// microsOf returns ns samples as microseconds.
func microsOf(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = v / 1e3
	}
	return out
}

// probeLayers measures the unit cost of every layer on fixed inputs, the
// same on every workload, so that a change to one layer shows in its own
// number whichever workload's trace is read. The sampling probes run on
// the estimate workload's codes — Steane, Surface and Carbon, the codes of
// the BENCH_pr4–6 shot-loop trajectory.
func (w *workload) probeLayers(m metrics) error {
	for _, probe := range []func(metrics) error{w.probeServing, w.probeStore, w.probeSynthesis, w.probeSim, w.probeJobs} {
		if err := probe(m); err != nil {
			return err
		}
	}
	return nil
}

// probeServing times the memory-hit path in-process (cache key, cache hit,
// rendering), the tracer itself, and the same requests over HTTP against a
// server booted for the purpose; http.self_us is the difference.
func (w *workload) probeServing(m metrics) error {
	const n = 2000
	stream := hitStream(w.seed, 0, -2, n, w.set.options)
	rp, err := newReplayer(w.ctx, nil, w.e.fixture)
	if err != nil {
		return err
	}
	pass := func(tr *tracer, reqs []hitRequest) (time.Duration, error) {
		rp.tr = tr
		var err error
		d := timeIt(func() {
			for i, hr := range reqs {
				if _, e := rp.hit(fmt.Sprint(i), hr); e != nil && err == nil {
					err = e
				}
			}
		})
		return d, err
	}
	// Pair each traced pass with an untraced one next to it in time, in
	// alternating order, each after a collection, so that neither drift nor
	// the previous pass's garbage favours one side. Short passes keep the
	// two sides of a pair close in time; the last traced pass covers the
	// whole stream for the per-call medians below.
	var ratios []float64
	var last *tracer
	for i := 0; i <= 30; i++ {
		reqs := stream[:n/4]
		if i == 30 {
			reqs = stream
		}
		var plain, traced time.Duration
		for k := 0; k < 2; k++ {
			var tr *tracer
			if (i+k)%2 == 1 {
				tr = newTracer()
				tr.spans = make([]Span, 0, 3*len(reqs))
				last = tr
			}
			runtime.GC()
			d, err := pass(tr, reqs)
			if err != nil {
				return err
			}
			if tr != nil {
				traced = d
			} else {
				plain = d
			}
		}
		ratios = append(ratios, float64(traced)/float64(plain))
	}
	m.set("trace.overhead_pct", (median(ratios)-1)*100, "%")

	self, _ := selfTimes(last.spans)
	selfOf := func(name string) []float64 {
		var out []float64
		for _, s := range last.spans {
			if s.Name == name {
				out = append(out, float64(self[s.ID]))
			}
		}
		return out
	}
	var keys []float64
	for _, hr := range stream {
		var err error
		keys = append(keys, float64(timeIt(func() { _, err = hr.body.Options.Key() })))
		if err != nil {
			return err
		}
	}
	m.set("dftsp.key_us", median(keys)/1e3, "us")
	m.set("dftsp.protocol_hit_us", median(microsOf(selfOf("dftsp.protocol_hit"))), "us")
	m.set("dftsp.render_us", median(microsOf(selfOf("dftsp.render"))), "us")
	inProc := median(microsOf(spanDurations(last.spans, rootName)))

	const spans = 100_000
	tr := newTracer()
	tr.spans = make([]Span, 0, spans)
	d := timeIt(func() {
		for i := 0; i < spans; i++ {
			tr.end(tr.start("probe", 0, ""))
		}
	})
	m.set("trace.span_ns", float64(d)/spans, "ns")

	s, _, err := w.e.boot(w.ctx, bootSpec{args: []string{"-store-ro", w.e.fixture, "-workers", "2"}})
	if err != nil {
		return err
	}
	var lat []time.Duration
	for round := 0; round < 2; round++ { // the first round warms the connection
		lat = lat[:0]
		for _, hr := range stream[:500] {
			body, _ := json.Marshal(hr.body) // plain structs: cannot fail
			t0 := time.Now()
			status, _, err := w.post(s.base+"/synthesize", body)
			lat = append(lat, time.Since(t0))
			if err != nil || status != 200 {
				s.stop()
				return fmt.Errorf("probe /synthesize: status %d: %v", status, err)
			}
		}
	}
	if _, _, err := s.stop(); err != nil {
		return err
	}
	m.set("http.self_us", median(millis(lat))*1e3-inProc, "us")
	return nil
}

// fixtureEntries reads and decodes every protocol of the fixture store.
func (w *workload) fixtureEntries() ([][]byte, error) {
	files, err := filepath.Glob(filepath.Join(w.e.fixture, "*.dfp"))
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// probeStore times decoding one entry, warm-starting a service from the
// whole fixture, and writing one entry.
func (w *workload) probeStore(m metrics) error {
	entries, err := w.fixtureEntries()
	if err != nil {
		return err
	}
	dir, err := w.e.dir("probe-store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var decode, put, warm []float64
	for rep := 0; rep < 3; rep++ {
		for _, data := range entries {
			var p *core.Protocol
			var meta store.Meta
			d := timeIt(func() { p, meta, err = store.Decode(data) })
			if err != nil {
				return err
			}
			decode = append(decode, float64(d))
			d = timeIt(func() { err = st.Put(meta, p) })
			if err != nil {
				return err
			}
			put = append(put, float64(d))
		}
		svc := dftsp.NewService(2)
		if err := svc.AttachStoreTiers("", w.e.fixture); err != nil {
			return err
		}
		d := timeIt(func() { _, _, err = svc.WarmStart(w.ctx) })
		if err != nil {
			return err
		}
		warm = append(warm, float64(d))
	}
	m.set("store.decode_us", median(decode)/1e3, "us")
	m.set("store.put_ms", median(put)/1e6, "ms")
	m.set("store.warm_start_ms", median(warm)/1e6, "ms")
	return nil
}

// probeSynthesis times the synthesis layers on the three cheapest codes
// (and the optimal preparation on Steane): the preparation circuit, the
// dangerous-error enumeration, the layer-1 verification SAT, and the rest
// of the build — correction synthesis and assembly.
func (w *workload) probeSynthesis(m metrics) error {
	ctx := w.ctx
	var heur, dang, sat, rest []float64
	for rep := 0; rep < 3; rep++ {
		for _, name := range []string{"Steane", "Shor", "Surface"} {
			cs, err := code.ByName(name)
			if err != nil {
				return err
			}
			var prepC *circuit.Circuit
			heur = append(heur, float64(timeIt(func() { prepC = prep.Heuristic(cs) })))
			var exD []f2.Vec
			dd := timeIt(func() {
				exD = verify.DangerousErrors(cs, prepC, code.ErrX)
				verify.DangerousErrors(cs, prepC, code.ErrZ)
			})
			var ds time.Duration
			if len(exD) > 0 {
				ds = timeIt(func() { _, err = verify.Synthesize(ctx, cs.DetectionGroup(code.ErrX), exD) })
				if err != nil {
					return err
				}
			}
			db := timeIt(func() { _, err = core.BuildFromPrep(ctx, cs, prepC, core.Config{}) })
			if err != nil {
				return err
			}
			dang = append(dang, float64(dd))
			sat = append(sat, float64(ds))
			rest = append(rest, float64(db-dd-ds))
		}
	}
	m.set("prep.heuristic_ms", median(heur)/1e6, "ms")
	m.set("verify.dangerous_ms", median(dang)/1e6, "ms")
	m.set("verify.sat_ms", median(sat)/1e6, "ms")
	m.set("core.correct_assemble_ms", median(rest)/1e6, "ms")

	cs, err := code.ByName("Steane")
	if err != nil {
		return err
	}
	d := timeIt(func() { _, err = prep.Optimal(ctx, cs, 0) })
	if err != nil {
		return err
	}
	m.set("prep.optimal_ms", d.Seconds()*1e3, "ms")
	return nil
}

// fixtureProtocol loads the default-options protocol of a catalog code
// from the fixture store.
func (w *workload) fixtureProtocol(name string) (*core.Protocol, error) {
	key, err := dftsp.Options{Code: name, Prep: dftsp.PrepHeuristic, Verif: dftsp.VerifOptimal}.Key()
	if err != nil {
		return nil, err
	}
	st, err := store.OpenReadOnly(w.e.fixture)
	if err != nil {
		return nil, err
	}
	p, _, err := st.Get(key)
	return p, err
}

// probeSim times the per-request compile, the stratified fault-order
// estimate, fixed-budget direct and rare-event sampling on one worker, the
// 64-lane batch shot loop at p = 1e-2 on each probe code (the loop the
// BENCH_pr4–6 files recorded as batch shots/s), and one 8-block job shard
// at each job rate.
func (w *workload) probeSim(m metrics) error {
	ctx := w.ctx
	ests := map[string]*sim.Estimator{}
	var compile []float64
	for _, name := range w.set.estimateCodes {
		p, err := w.fixtureProtocol(name)
		if err != nil {
			return fmt.Errorf("probe protocol %s: %w", name, err)
		}
		for rep := 0; rep < 3; rep++ {
			compile = append(compile, float64(timeIt(func() { ests[name] = sim.NewEstimator(p) })))
		}
	}
	m.set("sim.compile_us", median(compile)/1e3, "us")

	steane := ests["Steane"]
	ratio := dftsp.EstimateOptions{}.NoiseRatio()
	var fo []float64
	for rep := int64(1); rep <= 3; rep++ {
		var err error
		d := timeIt(func() { _, err = steane.FaultOrderModel(ctx, 3, 20000, rand.New(rand.NewSource(rep)), ratio) })
		if err != nil {
			return err
		}
		fo = append(fo, float64(d))
	}
	m.set("sim.fault_order_ms", median(fo)/1e6, "ms")

	for _, c := range []struct {
		name   string
		method sim.Method
		p      float64
		shots  int
	}{{"sim.direct_shots_per_s", sim.MethodDirect, 1e-2, 1 << 20}, {"sim.rare_shots_per_s", sim.MethodRare, 1e-4, 1 << 18}} {
		var ar sim.AdaptiveResult
		var err error
		d := timeIt(func() { ar, err = steane.AdaptiveModel(ctx, c.method, noise.Uniform(c.p), 0, c.shots, 1, 1) })
		if err != nil {
			return err
		}
		m.set(c.name, float64(ar.Shots)/d.Seconds(), "1/s")
	}

	for _, name := range w.set.estimateCodes {
		b := ests[name].Batch()
		if b == nil {
			return fmt.Errorf("%s: no batch engine", name)
		}
		smp := noise.NewSparseSampler(1e-2, 1)
		bs := b.NewShot()
		words, fails := 0, 0
		start := time.Now()
		for time.Since(start) < 50*time.Millisecond {
			for i := 0; i < 256; i++ {
				b.Run(bs, smp, ^uint64(0))
				fails += bits.OnesCount64(b.Judge(bs))
			}
			words += 256
		}
		if fails == 0 {
			return fmt.Errorf("%s: the batch loop saw no failure at p = 1e-2", name)
		}
		m.set("sim.batch_shots_per_s."+name, float64(64*words)/time.Since(start).Seconds(), "1/s")
	}

	for i, rate := range jobRates {
		var ds []float64
		for rep := 0; rep < 5; rep++ {
			br, err := steane.NewBlockRunnerModel(sim.MethodDirect, noise.Uniform(rate))
			if err != nil {
				return err
			}
			ds = append(ds, float64(timeIt(func() {
				for b := 0; b < jobs.ShardBlocks; b++ {
					br.RunBlock(ctx, int64(rep+1), b, sim.BlockShots)
				}
			})))
		}
		m.set("sim.shard_sample_ms."+rateNames[i], median(ds)/1e6, "ms")
	}
	return nil
}

// rateNames spell jobRates in metric names.
var rateNames = []string{"1e-2", "3e-3", "1e-3"}

// probeJobs times the checkpoint append (write plus fsync) over a job's
// shard records, and the lease round trip — lease plus completion — against
// an in-process coordinator over loopback HTTP.
func (w *workload) probeJobs(m metrics) error {
	dir, err := w.e.dir("probe-jobs")
	if err != nil {
		return err
	}
	js, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	key, err := dftsp.Options{Code: "Steane"}.Key()
	if err != nil {
		return err
	}
	lg, _, err := js.Create(jobs.Spec{ProtocolKey: key, Method: "direct", Rates: jobRates, MCShots: jobShots, Seed: 1})
	if err != nil {
		return err
	}
	defer lg.Close()
	counts := sim.Counts{Shots: jobs.ShardBlocks * sim.BlockShots, Fails: 100}
	var app []float64
	// 1200 appends leave 12 beyond the p99 rank.
	for i := 0; i < 1200; i++ {
		rec := jobs.Record{Kind: "shard", Point: i / 128, Round: i % 128 / 4, Shard: i % 4, Counts: &counts}
		d := timeIt(func() { err = lg.Append(rec) })
		if err != nil {
			return err
		}
		app = append(app, float64(d))
	}
	m.set("jobs.append_us.p50", median(app)/1e3, "us")
	m.set("jobs.append_us.p99", percentile(app, 99)/1e3, "us")

	rig, err := newFleetRig(w.ctx)
	if err != nil {
		return err
	}
	defer rig.close()
	var rtt []float64
	for i := 0; i < 200; i++ {
		task := shardrpc.Task{ID: fmt.Sprintf("probe/%d", i), Job: "probe", ProtocolKey: key, Engine: "batch",
			Method: "direct", Model: noise.Uniform(1e-2), Seed: 1, Block0: 0, Block1: 1, Budget: 64}
		d := timeIt(func() {
			_, err = rig.roundTrip(w.ctx, nil, 0, "", task, func() (sim.Counts, error) { return sim.Counts{Shots: 64}, nil })
		})
		if err != nil {
			return err
		}
		rtt = append(rtt, float64(d))
	}
	m.set("shardrpc.lease_rtt_us", median(rtt)/1e3, "us")
	return nil
}
