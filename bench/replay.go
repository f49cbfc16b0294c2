package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/dftsp"
	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/prep"
	"repro/internal/shardrpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/verify"
)

// replayer re-runs a workload's generated requests in-process, through the
// public functions of each layer, with one span around every call. A nil
// tracer replays untraced. svc is a service warm-started from the fixture.
type replayer struct {
	ctx context.Context
	tr  *tracer
	svc *dftsp.Service
}

// newReplayer warm-starts an in-process service over the fixture store.
func newReplayer(ctx context.Context, tr *tracer, fixture string) (*replayer, error) {
	svc := dftsp.NewService(2)
	if err := svc.AttachStoreTiers("", fixture); err != nil {
		return nil, err
	}
	if _, _, err := svc.WarmStart(ctx); err != nil {
		return nil, err
	}
	return &replayer{ctx: ctx, tr: tr, svc: svc}, nil
}

// protocol fetches the protocol for opts from the warm service: the cache
// key and the memory hit.
func (rp *replayer) protocol(root int, req string, opts dftsp.Options) (*dftsp.Protocol, error) {
	sp := rp.tr.start("dftsp.protocol_hit", root, req)
	p, hit, err := rp.svc.Protocol(rp.ctx, opts)
	rp.tr.end(sp)
	if err == nil && !hit {
		err = fmt.Errorf("%s was not a cache hit", label(opts))
	}
	return p, err
}

// coldSynthesis replays one synth-cold request layer by layer — the code,
// the preparation circuit, the layer-1 verification SAT, the full build,
// the store write-back and the response rendering — and returns the
// protocol's Table I metrics row. The replay times the layer-1 verification
// on its own; core.BuildFromPrep repeats it internally, so those spans are
// marked as duplicates of the build span.
func (rp *replayer) coldSynthesis(req string, opts dftsp.Options, st *store.Store) (string, error) {
	tr, ctx := rp.tr, rp.ctx
	root := tr.start(rootName, 0, req)
	defer tr.end(root)

	sp := tr.start("dftsp.key", root, req)
	key, err := opts.Key()
	tr.end(sp)
	if err != nil {
		return "", err
	}
	sp = tr.start("code.by_name", root, req)
	cs, err := code.ByName(opts.Code)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	norm := dftsp.Options{Code: cs.Name, Prep: dftsp.PrepHeuristic, Verif: dftsp.VerifOptimal}
	var cfg core.Config
	if opts.Prep == dftsp.PrepOptimal {
		cfg.Prep, norm.Prep = core.PrepOptimal, dftsp.PrepOptimal
	}
	if opts.Verif == dftsp.VerifGlobal {
		cfg.Verif, norm.Verif = core.VerifGlobal, dftsp.VerifGlobal
	}

	var prepC *circuit.Circuit
	if cfg.Prep == core.PrepOptimal {
		sp = tr.start("prep.optimal", root, req)
		prepC, err = prep.Optimal(ctx, cs, cfg.PrepBudget)
		tr.end(sp)
		if err != nil {
			return "", err
		}
	}
	if prepC == nil { // heuristic, or the optimal search ran out of budget
		sp = tr.start("prep.heuristic", root, req)
		prepC = prep.Heuristic(cs)
		tr.end(sp)
	}

	sp = tr.start("verify.dangerous", root, req)
	exD := verify.DangerousErrors(cs, prepC, code.ErrX)
	verify.DangerousErrors(cs, prepC, code.ErrZ)
	tr.dup(sp, "core.build_from_prep")
	if len(exD) > 0 {
		sp = tr.start("verify.sat", root, req)
		if cfg.Verif == core.VerifGlobal {
			_, err = verify.EnumerateOptimal(ctx, cs.DetectionGroup(code.ErrX), exD, 16)
		} else {
			_, err = verify.Synthesize(ctx, cs.DetectionGroup(code.ErrX), exD)
		}
		tr.dup(sp, "core.build_from_prep")
		if err != nil {
			return "", err
		}
	}
	sp = tr.start("core.build_from_prep", root, req)
	p, err := core.BuildFromPrep(ctx, cs, prepC, cfg)
	tr.end(sp)
	if err != nil {
		return "", err
	}

	optsJSON, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	sp = tr.start("store.put", root, req)
	err = st.Put(store.Meta{Key: key, Options: optsJSON}, p)
	tr.end(sp)
	if err != nil {
		return "", err
	}

	sp = tr.start("dftsp.render", root, req)
	resp, err := render(&dftsp.Protocol{Core: p, Options: norm}, false)
	tr.end(sp)
	return resp.Metrics, err
}

// render builds and encodes the /synthesize answer for p.
func render(p *dftsp.Protocol, withQASM bool) (synthesizeResponse, error) {
	resp := synthesizeResponse{
		Code: p.CodeName(), Params: p.CodeParams(), Summary: p.Summary(),
		Metrics: p.MetricsRow(), Describe: p.Describe(), CacheHit: true,
	}
	if withQASM {
		q, err := p.QASM()
		if err != nil {
			return resp, err
		}
		resp.QASM = q
	}
	_, err := json.Marshal(resp)
	return resp, err
}

// hit replays one synth-hit request and returns the code it answered.
func (rp *replayer) hit(req string, hr hitRequest) (string, error) {
	root := rp.tr.start(rootName, 0, req)
	defer rp.tr.end(root)
	p, err := rp.protocol(root, req, hr.body.Options)
	if err != nil {
		return "", err
	}
	sp := rp.tr.start("dftsp.render", root, req)
	resp, err := render(p, hr.body.QASM)
	rp.tr.end(sp)
	return resp.Code, err
}

// estimate replays one /estimate request through the sim layer: the
// per-request compile, the stratified fault-order estimate and one adaptive
// Monte-Carlo run per sampled rate, with the defaults and the per-point
// seeds the service applies. The result must equal the server's answer bit
// for bit.
func (rp *replayer) estimate(req string, er estimateRequest) (dftsp.EstimateResult, error) {
	tr, ctx := rp.tr, rp.ctx
	root := tr.start(rootName, 0, req)
	defer tr.end(root)
	p, err := rp.protocol(root, req, er.Options)
	if err != nil {
		return dftsp.EstimateResult{}, err
	}

	eo := er.Estimate
	maxOrder, samples, seed := 3, 20000, eo.Seed
	if eo.MaxOrder > 0 {
		maxOrder = eo.MaxOrder
	}
	if eo.Samples > 0 {
		samples = eo.Samples
	}
	if seed == 0 {
		seed = 1
	}
	rates := eo.Rates
	if len(rates) == 0 {
		rates, _ = dftsp.LogGrid(1e-4, 1e-1, 13) // known-valid constants
	}
	method, err := sim.ParseMethod(eo.Method)
	if err != nil {
		return dftsp.EstimateResult{}, err
	}
	target, budget, minRate := eo.TargetRSE, eo.MCShots, eo.MCMinRate
	if target > 0 {
		budget = eo.MaxShots
		if budget <= 0 {
			budget = 10_000_000
		}
		if method == sim.MethodDirect && minRate == 0 {
			minRate = 1e-2
		}
	}

	sp := tr.start("sim.compile", root, req)
	est := sim.NewEstimator(p.Core)
	tr.end(sp)
	ratio := eo.NoiseRatio()
	sp = tr.start("sim.fault_order", root, req)
	fo, err := est.FaultOrderModel(ctx, maxOrder, samples, rand.New(rand.NewSource(seed)), ratio)
	tr.end(sp)
	if err != nil {
		return dftsp.EstimateResult{}, err
	}
	res := dftsp.EstimateResult{Locations: fo.N, F: fo.F}
	for i, r := range rates {
		model := ratio.Scale(r)
		pt := dftsp.RatePoint{P: r, PL: fo.RateModel(model)}
		if (budget > 0 || target > 0) && r >= minRate {
			sp = tr.start("sim."+method.String(), root, req)
			ar, err := est.AdaptiveModel(ctx, method, model, target, budget, sim.PointSeed(seed, i), 2)
			tr.end(sp)
			if err != nil {
				return dftsp.EstimateResult{}, err
			}
			pt.MC, pt.Shots, pt.RSE = ar.PL, ar.Shots, ar.RSE
			pt.CILo, pt.CIHi = ar.CILo, ar.CIHi
			pt.Method = ar.Method.String()
			pt.EffSamples, pt.WeightVar = ar.EffectiveSamples, ar.WeightVariance
			res.Engine = est.EngineInUse().String()
		}
		res.Points = append(res.Points, pt)
	}
	sp = tr.start("dftsp.render", root, req)
	_, err = json.Marshal(res)
	tr.end(sp)
	return res, err
}

// job replays one job of the job workloads single-threaded: the job file,
// the compile, and per point every shard's sampling and checkpoint append,
// in the order the runner writes them. With a fleet rig every shard also
// makes the lease round trip. It returns the pooled counts per point.
func (rp *replayer) job(req string, er estimateRequest, js *jobs.Store, fleet *fleetRig) ([]sim.Counts, error) {
	tr, ctx := rp.tr, rp.ctx
	root := tr.start(rootName, 0, req)
	defer tr.end(root)
	p, err := rp.protocol(root, req, er.Options)
	if err != nil {
		return nil, err
	}
	key, err := p.Options.Key()
	if err != nil {
		return nil, err
	}
	spec := jobs.Spec{ProtocolKey: key, Method: er.Estimate.Method, Rates: er.Estimate.Rates,
		MCShots: er.Estimate.MCShots, Seed: er.Estimate.Seed}.Normalized()
	id := spec.ID()
	sp := tr.start("jobs.create", root, req)
	lg, _, err := js.Create(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	sp = tr.start("sim.compile", root, req)
	est := sim.NewEstimator(p.Core)
	tr.end(sp)

	appendRec := func(rec jobs.Record) error {
		sp := tr.start("jobs.append", root, req)
		defer tr.end(sp)
		return lg.Append(rec)
	}
	method, err := sim.ParseMethod(spec.Method)
	if err != nil {
		return nil, err
	}
	_, budget := spec.Budget()
	blocks := (budget + sim.BlockShots - 1) / sim.BlockShots
	var pooled []sim.Counts
	for i, rate := range spec.Rates {
		model := spec.Model(rate)
		ps := jobs.PointState{Point: i, Rate: rate, Method: method.String()}
		if err := appendRec(jobs.Record{Kind: "point", Point: i, State: &ps}); err != nil {
			return nil, err
		}
		seed := sim.PointSeed(spec.Seed, i)
		var parts []sim.Counts
		for b0 := 0; b0 < blocks; b0 += jobs.ShardBlocks {
			b1 := min(b0+jobs.ShardBlocks, blocks)
			round, shard := b0/sim.BlocksPerRound, b0%sim.BlocksPerRound/jobs.ShardBlocks
			sample := func() (sim.Counts, error) {
				sp := tr.start("sim.shard_sample", root, req)
				defer tr.end(sp)
				br, err := est.NewBlockRunnerModel(method, model)
				if err != nil {
					return sim.Counts{}, err
				}
				for b := b0; b < b1; b++ {
					br.RunBlock(ctx, seed, b, min(sim.BlockShots, budget-b*sim.BlockShots))
				}
				return br.Counts(), nil
			}
			var counts sim.Counts
			if fleet != nil {
				counts, err = fleet.roundTrip(ctx, tr, root, req, shardrpc.Task{
					ID: shardrpc.TaskID(id, i, round, shard), Job: id, Point: i, Round: round, Shard: shard,
					ProtocolKey: key, Engine: est.EngineInUse().String(), Method: method.String(), Model: model,
					Seed: seed, Block0: b0, Block1: b1, Budget: budget,
				}, sample)
			} else {
				counts, err = sample()
			}
			if err != nil {
				return nil, err
			}
			if err := appendRec(jobs.Record{Kind: "shard", Point: i, Round: round, Shard: shard, Counts: &counts}); err != nil {
				return nil, err
			}
			parts = append(parts, counts)
		}
		ps.Counts, ps.Done = sim.PoolCounts(parts...), true
		if err := appendRec(jobs.Record{Kind: "point", Point: i, State: &ps}); err != nil {
			return nil, err
		}
		pooled = append(pooled, ps.Counts)
	}
	return pooled, appendRec(jobs.Record{Kind: "done"})
}

// fleetRig is an in-process lease coordinator served over loopback HTTP,
// with one registered client: the shardrpc path of a shard without a
// worker process.
type fleetRig struct {
	coord  *shardrpc.Coordinator
	srv    *http.Server
	served chan struct{}
	client *shardrpc.Client
}

func newFleetRig(ctx context.Context) (*fleetRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleetRig{coord: shardrpc.NewCoordinator(shardrpc.Config{}), served: make(chan struct{})}
	f.srv = &http.Server{Handler: f.coord.Handler()}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	f.client = shardrpc.NewClient(shardrpc.ClientConfig{BaseURL: ln.Addr().String(), Name: "bench"})
	if err := f.client.Register(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetRig) close() {
	f.coord.Close()
	_ = f.srv.Close() // only the listener and idle connections remain
	<-f.served
}

// roundTrip offers one task, leases it, runs it and completes it, with
// spans around the lease and the completion.
func (f *fleetRig) roundTrip(ctx context.Context, tr *tracer, root int, req string, task shardrpc.Task, run func() (sim.Counts, error)) (sim.Counts, error) {
	type result struct {
		counts sim.Counts
		err    error
	}
	delivered := make(chan result, 1)
	sp := tr.start("shardrpc.lease", root, req)
	f.coord.Offer(ctx, task, nil, func(c sim.Counts, err error) { delivered <- result{c, err} })
	lease, err := f.client.Lease(ctx, time.Second)
	tr.end(sp)
	if err == nil && lease == nil {
		err = fmt.Errorf("task %s was not leased", task.ID)
	}
	if err != nil {
		return sim.Counts{}, err
	}
	counts, err := run()
	if err != nil {
		return sim.Counts{}, err
	}
	sp = tr.start("shardrpc.complete", root, req)
	_, err = f.client.Complete(ctx, lease, counts)
	var res result
	if err == nil {
		res = <-delivered
	}
	tr.end(sp)
	if err != nil {
		return sim.Counts{}, err
	}
	return res.counts, res.err
}

// replayStats is what a replay adds to the per-layer report beyond its
// spans.
type replayStats struct {
	units        int   // rounds (or jobs) replayed
	shardSampleN int64 // total sampling time of the replayed jobs' shards, ns
}

// replay re-runs the workload's generated inputs in-process for about
// budget (at least one round, or one job), checking every result against
// the golden file or the HTTP run's answers in o. A zero budget replays
// exactly one unit; with a nil tracer the replay is untraced.
func (w *workload) replay(tr *tracer, o *outcome, budget time.Duration) (replayStats, error) {
	var rs replayStats
	start := time.Now()
	more := func() bool { return rs.units == 0 || time.Since(start) < budget }
	switch w.name {
	case "synth-cold":
		golden, err := loadGolden()
		if err != nil {
			return rs, err
		}
		rp := &replayer{ctx: w.ctx, tr: tr}
		for ; more(); rs.units++ {
			dir, err := w.e.dir("replay-store")
			if err != nil {
				return rs, err
			}
			st, err := store.Open(dir)
			if err != nil {
				return rs, err
			}
			for _, k := range coldOrder(w.seed, rs.units, len(w.set.options)) {
				opt := w.set.options[k]
				row, err := rp.coldSynthesis(fmt.Sprintf("r%d/%s", rs.units, label(opt)), opt, st)
				o.check(err == nil && row == golden[label(opt)], "replayed %s: row %q (golden %q), %v", label(opt), row, golden[label(opt)], err)
			}
		}
	case "synth-hit":
		rp, err := newReplayer(w.ctx, tr, w.e.fixture)
		if err != nil {
			return rs, err
		}
		for ; more(); rs.units++ {
			for i, hr := range hitStream(w.seed, 0, rs.units, hitRoundLen, w.set.options) {
				got, err := rp.hit(fmt.Sprintf("r%d/%d", rs.units, i), hr)
				if want := w.set.options[hr.option].Code; err != nil || got != want {
					o.check(false, "replayed hit %q: answered %q, %v", hr.body.Code, got, err)
				}
			}
		}
	case "estimate":
		rp, err := newReplayer(w.ctx, tr, w.e.fixture)
		if err != nil {
			return rs, err
		}
		for ; more(); rs.units++ {
			for i, req := range estimateRound(w.seed, rs.units, w.set.estimateCodes) {
				res, err := rp.estimate(fmt.Sprintf("r%d/%d", rs.units, i), req)
				if rs.units != 0 {
					continue
				}
				served, ok := o.estimates[i]
				same := err == nil && ok && len(res.F) > 1 && res.F[1] == 0 && len(res.Points) == len(served.Points)
				for j := 0; same && j < len(res.Points); j++ {
					same = res.Points[j].Shots == served.Points[j].Shots && res.Points[j].MC == served.Points[j].MC
				}
				o.check(same, "replayed estimate %s %+v differs from the server's answer (%v)", req.Options.Code, req.Estimate, err)
			}
		}
	case "jobs-local", "jobs-fleet":
		rp, err := newReplayer(w.ctx, tr, w.e.fixture)
		if err != nil {
			return rs, err
		}
		dir, err := w.e.dir("replay-jobs")
		if err != nil {
			return rs, err
		}
		js, err := jobs.Open(dir)
		if err != nil {
			return rs, err
		}
		var fleet *fleetRig
		if w.name == "jobs-fleet" {
			if fleet, err = newFleetRig(w.ctx); err != nil {
				return rs, err
			}
			defer fleet.close()
		}
		for ; more(); rs.units++ {
			req := jobRequest(w.seed, rs.units, w.set.jobCodes)
			pooled, err := rp.job(fmt.Sprintf("job%d", rs.units), req, js, fleet)
			if err != nil {
				return rs, fmt.Errorf("replaying job %d: %w", rs.units, err)
			}
			if rs.units == 0 && o.firstJob != nil {
				same := len(pooled) == len(o.firstJob.Points)
				for i := 0; same && i < len(pooled); i++ {
					same = pooled[i].Shots == o.firstJob.Points[i].Shots && pooled[i].Fails == o.firstJob.Points[i].Fails
				}
				o.check(same, "replayed job 0 counts differ from the server's job")
			}
		}
	default:
		return rs, fmt.Errorf("no replay for workload %q", w.name)
	}
	if tr != nil {
		for _, d := range spanDurations(tr.spans, "sim.shard_sample") {
			rs.shardSampleN += int64(d)
		}
	}
	return rs, nil
}
