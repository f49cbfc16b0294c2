package dftsp

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/noise"
	"repro/internal/sim"
)

// EstimateOptions tunes logical error-rate estimation.
type EstimateOptions struct {
	// Rates are the physical error rates to evaluate. Empty selects the
	// paper's Fig. 4 grid of 13 log-spaced points in [1e-4, 1e-1].
	Rates []float64 `json:"rates,omitempty"`

	// MaxOrder is the highest stratified fault order; orders 0 and 1 are
	// enumerated exhaustively, orders 2..MaxOrder are sampled. 0 selects 3.
	MaxOrder int `json:"max_order,omitempty"`

	// Samples is the sample count per sampled fault order. 0 selects 20000.
	Samples int `json:"samples,omitempty"`

	// MCShots, when > 0, adds a direct Monte-Carlo cross-check at every
	// requested rate, fanned across the worker pool.
	MCShots int `json:"mc_shots,omitempty"`

	// MCMinRate restricts the Monte-Carlo cross-check to rates >= this
	// value (direct sampling resolves nothing at tiny physical rates).
	// In fixed-budget mode 0 checks every requested rate. In adaptive mode
	// (TargetRSE > 0) with Method "direct" 0 selects 1e-2: a rate whose
	// logical error probability is far below 1/MaxShots can never observe a
	// failure, so the RSE stopping rule never fires and every such point
	// would burn the full MaxShots cap — across a default 13-point grid
	// that is over 10^8 wasted shots per request. With Method "auto" or
	// "rare" 0 keeps every rate: the rare-event estimator handles the tiny
	// rates the floor existed to protect against, so no floor applies.
	// Pass an explicit tiny positive value (e.g. 1e-300) to sample every
	// rate even with Method "direct".
	MCMinRate float64 `json:"mc_min_rate,omitempty"`

	// Method selects the Monte-Carlo sampling method: "" or "auto" picks
	// per rate between direct sampling and the rare-event (>= 1-fault
	// conditional) estimator by the crossover policy — rare when
	// P(#faults >= 1) < 0.5 at that rate — while "direct" and "rare" force
	// their method at every sampled rate ("rare" requires all rates
	// strictly inside (0,1), which Validate already guarantees). Sampled
	// points report which method ran.
	Method string `json:"method,omitempty"`

	// TargetRSE, when > 0, switches the Monte-Carlo cross-check to
	// adaptive mode: sampling at each rate continues in chunks until the
	// relative standard error of the estimate drops to this value or
	// MaxShots is reached, whichever comes first. Must lie in (0, 1).
	// Adaptive points report their shot count, RSE and Wilson confidence
	// interval on the returned RatePoints.
	TargetRSE float64 `json:"target_rse,omitempty"`

	// MaxShots caps adaptive sampling per rate. 0 selects 10,000,000 when
	// TargetRSE > 0; ignored otherwise.
	MaxShots int `json:"max_shots,omitempty"`

	// Seed seeds all sampling. 0 selects 1, so results are reproducible by
	// default.
	Seed int64 `json:"seed,omitempty"`

	// Workers bounds the Monte-Carlo worker pool; <= 0 selects
	// sim.DefaultWorkers() (DFTSP_WORKERS or the CPU count).
	Workers int `json:"workers,omitempty"`

	// Engine selects the Monte-Carlo engine: "" or "auto" picks the fastest
	// available (the 64-lane bit-parallel batch engine when the protocol
	// compiles, else the scalar compiled engine), "scalar" forces the scalar
	// path, and "batch" requires the batch engine (rejected with
	// ErrBadOptions when the protocol exceeds its packing limits). The
	// DFTSP_ENGINE environment variable changes what "auto" resolves to.
	Engine string `json:"engine,omitempty"`

	// Bias2Q scales the two-qubit (CNOT) fault rate relative to the base
	// physical rate: at rate p, two-qubit locations fault with probability
	// p·Bias2Q while one-qubit locations keep p. 0 selects 1 — the paper's
	// uniform E1_1 model. Every scaled rate must stay below 1 (Validate).
	Bias2Q float64 `json:"bias_2q,omitempty"`

	// BiasMeas scales the measurement-flip rate: p·BiasMeas. 0 selects 1.
	BiasMeas float64 `json:"bias_meas,omitempty"`

	// Eta biases the two-qubit fault operator menu toward Z-heavy operators:
	// each of the 15 non-identity two-qubit Paulis is weighted by
	// Eta^(number of pure-Z slots), so ZI/IZ carry weight Eta, ZZ carries
	// Eta², and operators with any X or Y component keep weight 1. Eta > 1
	// models dephasing-dominated hardware; 0 selects 1 (the uniform menu).
	Eta float64 `json:"eta,omitempty"`
}

// NoiseRatio returns the per-class noise model ratio the options select —
// relative rates (P1Q = 1, P2Q = Bias2Q, PMeas = BiasMeas) and the two-qubit
// Z-bias Eta, with zero fields replaced by 1. Scale it by a physical rate to
// obtain the model sampled at that rate; the zero ratio is the paper's
// uniform E1_1 model.
func (eo EstimateOptions) NoiseRatio() noise.Model {
	m := noise.Model{P1Q: 1, P2Q: 1, PMeas: 1, Eta: 1}
	if eo.Bias2Q != 0 {
		m.P2Q = eo.Bias2Q
	}
	if eo.BiasMeas != 0 {
		m.PMeas = eo.BiasMeas
	}
	if eo.Eta != 0 {
		m.Eta = eo.Eta
	}
	return m
}

// Biased reports whether the options select anything other than the paper's
// uniform E1_1 model.
func (eo EstimateOptions) Biased() bool { return !eo.NoiseRatio().IsUniform() }

func (eo EstimateOptions) withDefaults() EstimateOptions {
	if eo.MaxOrder <= 0 {
		eo.MaxOrder = 3
	}
	if eo.Samples <= 0 {
		eo.Samples = 20000
	}
	if eo.Seed == 0 {
		eo.Seed = 1
	}
	if eo.Workers <= 0 {
		eo.Workers = sim.DefaultWorkers()
	}
	if eo.TargetRSE > 0 {
		if eo.MaxShots <= 0 {
			eo.MaxShots = 10_000_000
		}
		// The burn-the-cap floor only protects direct sampling; auto and
		// rare handle arbitrarily small rates via the conditional estimator.
		if m, _ := sim.ParseMethod(eo.Method); m == sim.MethodDirect && eo.MCMinRate == 0 {
			eo.MCMinRate = 1e-2
		}
	}
	if len(eo.Rates) == 0 {
		// The paper's Fig. 4 grid; the arguments are known-valid constants.
		eo.Rates, _ = LogGrid(1e-4, 1e-1, 13)
	}
	return eo
}

// RatePoint is one evaluated point of the logical error-rate curve. The
// Monte-Carlo fields are populated whenever sampling ran at this point
// (MCShots > 0 or TargetRSE > 0, and P >= MCMinRate).
type RatePoint struct {
	P  float64 `json:"p"`            // physical error rate
	PL float64 `json:"pl"`           // stratified logical error rate (upper bound)
	MC float64 `json:"mc,omitempty"` // direct Monte-Carlo estimate, when requested

	// Shots is the number of Monte-Carlo shots actually executed at this
	// point (less than MaxShots when an adaptive run hit TargetRSE early).
	Shots int `json:"shots,omitempty"`

	// RSE is the relative standard error of MC; 0 when no failure was
	// observed (the RSE is undefined without failures).
	RSE float64 `json:"rse,omitempty"`

	// CILo and CIHi are the 95% Wilson confidence interval for MC.
	CILo float64 `json:"ci_lo,omitempty"`
	CIHi float64 `json:"ci_hi,omitempty"`

	// Method is the sampling method that ran at this point: "direct" or
	// "rare" (the auto selection resolved per rate).
	Method string `json:"method,omitempty"`

	// EffSamples is the Kish effective sample size under the rare-event
	// estimator's fault-count post-stratification weights; equal to Shots
	// for direct sampling.
	EffSamples float64 `json:"effective_samples,omitempty"`

	// WeightVar is the relative variance of the post-stratification
	// weights (Shots/EffSamples - 1); 0 for direct sampling.
	WeightVar float64 `json:"weight_variance,omitempty"`
}

// MarshalJSON serializes the point so that the presence of the sampling
// statistics tracks whether sampling ran, not whether the values happen to
// be zero: a sampled point (Shots > 0) always carries mc, shots, rse,
// ci_lo, ci_hi, method, effective_samples and weight_variance — a 10M-shot
// run with zero observed failures legitimately has mc = rse = ci_lo = 0,
// and plain omitempty would silently drop those fields and make the point
// look unsampled — while an unsampled point carries only p and pl.
func (pt RatePoint) MarshalJSON() ([]byte, error) {
	type bare struct {
		P  float64 `json:"p"`
		PL float64 `json:"pl"`
	}
	if pt.Shots == 0 {
		return json.Marshal(bare{P: pt.P, PL: pt.PL})
	}
	type sampled struct {
		bare
		MC         float64 `json:"mc"`
		Shots      int     `json:"shots"`
		RSE        float64 `json:"rse"`
		CILo       float64 `json:"ci_lo"`
		CIHi       float64 `json:"ci_hi"`
		Method     string  `json:"method"`
		EffSamples float64 `json:"effective_samples"`
		WeightVar  float64 `json:"weight_variance"`
	}
	return json.Marshal(sampled{
		bare:       bare{P: pt.P, PL: pt.PL},
		MC:         pt.MC,
		Shots:      pt.Shots,
		RSE:        pt.RSE,
		CILo:       pt.CILo,
		CIHi:       pt.CIHi,
		Method:     pt.Method,
		EffSamples: pt.EffSamples,
		WeightVar:  pt.WeightVar,
	})
}

// NoiseBias echoes the per-class noise model ratio an estimate ran under,
// with the defaults made explicit (every field is 1 for the paper's uniform
// E1_1 model; estimates under the uniform model omit the echo entirely).
type NoiseBias struct {
	// Bias2Q and BiasMeas are the two-qubit and measurement rate
	// multipliers relative to the one-qubit rate.
	Bias2Q   float64 `json:"bias_2q"`
	BiasMeas float64 `json:"bias_meas"`

	// Eta is the two-qubit Z-bias of the operator menu.
	Eta float64 `json:"eta"`
}

// EstimateResult holds a logical error-rate estimate.
type EstimateResult struct {
	// Locations is the number of fault locations on the fault-free path.
	Locations int `json:"locations"`

	// F[w] is the conditional logical failure probability given exactly w
	// faults; F[1] == 0 certifies single-fault tolerance.
	F []float64 `json:"f"`

	// NoiseBias echoes the per-class noise model the estimate ran under;
	// nil for the paper's uniform E1_1 model.
	NoiseBias *NoiseBias `json:"noise_bias,omitempty"`

	// Points is the evaluated curve, one entry per requested rate.
	Points []RatePoint `json:"points"`

	// Engine names the Monte-Carlo engine that actually sampled ("scalar"
	// or "batch" — the resolved engine, never "auto"); empty when no point
	// was sampled.
	Engine string `json:"engine,omitempty"`

	// MCSeconds is the wall time spent in direct Monte-Carlo sampling
	// alone — excluding synthesis, compilation and the stratified fault
	// enumeration — so throughput accounting (Service shots_per_sec)
	// reflects engine speed, not request overhead. Not serialized.
	MCSeconds float64 `json:"-"`
}

// Validate reports whether the estimation options are usable, so callers
// can reject a request before paying for protocol synthesis. Rejections
// wrap ErrBadOptions.
func (eo EstimateOptions) Validate() error {
	for _, r := range eo.Rates {
		if r <= 0 || r >= 1 {
			return badOptions("physical rate %g outside (0,1)", r)
		}
	}
	if eo.MCShots < 0 {
		return badOptions("mc_shots %d must be >= 0", eo.MCShots)
	}
	if eo.MaxShots < 0 {
		return badOptions("max_shots %d must be >= 0", eo.MaxShots)
	}
	if eo.TargetRSE < 0 || eo.TargetRSE >= 1 {
		return badOptions("target_rse %g outside [0,1)", eo.TargetRSE)
	}
	if eo.MCMinRate < 0 {
		return badOptions("mc_min_rate %g must be >= 0", eo.MCMinRate)
	}
	if _, err := sim.ParseEngine(eo.Engine); err != nil {
		return badOptions("engine %q (want auto, scalar or batch)", eo.Engine)
	}
	if _, err := sim.ParseMethod(eo.Method); err != nil {
		return badOptions("method %q (want auto, direct or rare)", eo.Method)
	}
	for _, b := range []struct {
		name string
		v    float64
	}{{"bias_2q", eo.Bias2Q}, {"bias_meas", eo.BiasMeas}, {"eta", eo.Eta}} {
		// 0 selects the default of 1; anything else must be a positive
		// finite multiplier.
		if b.v != 0 && !(b.v > 0 && b.v < math.Inf(1)) {
			return badOptions("%s %g must be a positive finite multiplier (or 0 for 1)", b.name, b.v)
		}
	}
	// Every scaled per-class rate must stay inside (0, 1) across the grid —
	// checked against the requested rates, or the default grid's top rate
	// when none are given (withDefaults fills the 1e-1-topped Fig. 4 grid).
	var hi float64
	for _, r := range eo.Rates {
		if r > hi {
			hi = r
		}
	}
	if len(eo.Rates) == 0 {
		hi = 1e-1
	}
	if m := eo.NoiseRatio().Scale(hi); m.MaxRate() >= 1 {
		return badOptions("biased rate %g at p = %g reaches 1", m.MaxRate(), hi)
	}
	return nil
}

// Estimate measures the protocol's logical error rate under the paper's
// circuit-level depolarizing model (E1_1), using the stratified fault-order
// estimator for the curve and, when MCShots > 0 or TargetRSE > 0, direct
// Monte-Carlo sampling as a cross-check. Sampling runs on the 64-lane
// bit-parallel batch engine by default (Engine "auto"), falling back to the
// compiled scalar engine when the protocol exceeds the packing limits; both
// are allocation-free in steady state. The sampling method follows Method:
// "auto" (the default) switches per rate between direct sampling and the
// rare-event conditional estimator, which resolves logical rates far below
// 1/MaxShots by conditioning every shot on at least one fault. With
// TargetRSE set, each sampled point runs adaptively until its relative
// standard error reaches the target or MaxShots is exhausted, and reports
// shots, RSE, a 95% Wilson confidence interval, the method that ran, and
// the weighted-sample diagnostics.
//
// Cancelling ctx stops the fault enumeration and every Monte-Carlo worker
// promptly; the returned error then matches context.Canceled /
// context.DeadlineExceeded via errors.Is.
func (p *Protocol) Estimate(ctx context.Context, eo EstimateOptions) (EstimateResult, error) {
	// Validate the options as given, before withDefaults rewrites empty
	// fields — otherwise a negative MaxShots in adaptive mode would be
	// silently replaced by the default instead of rejected.
	if err := eo.Validate(); err != nil {
		return EstimateResult{}, err
	}
	eo = eo.withDefaults()
	est := sim.NewEstimator(p.Core)
	// Validated above; only the explicit batch selection can still fail,
	// when the protocol exceeds the engine's packing limits. "auto" (like
	// "") keeps the estimator's default so the DFTSP_ENGINE process-wide
	// override stays in force.
	if engine, _ := sim.ParseEngine(eo.Engine); engine != sim.EngineAuto {
		if err := est.SetEngine(engine); err != nil {
			return EstimateResult{}, badOptions("%w", err)
		}
	}
	// The noise ratio routes every stage: a uniform ratio (the zero value of
	// the bias fields) runs each sampler's single-rate inner path, so the
	// paper's model stays bit-identical to earlier releases.
	ratio := eo.NoiseRatio()
	fo, err := est.FaultOrderModel(ctx, eo.MaxOrder, eo.Samples, rand.New(rand.NewSource(eo.Seed)), ratio)
	if err != nil {
		return EstimateResult{}, estimateError(err)
	}
	res := EstimateResult{Locations: fo.N, F: fo.F}
	if !ratio.IsUniform() {
		res.NoiseBias = &NoiseBias{Bias2Q: ratio.P2Q, BiasMeas: ratio.PMeas, Eta: ratio.Eta}
	}
	adaptive := eo.TargetRSE > 0
	method, _ := sim.ParseMethod(eo.Method) // validated above
	for i, r := range eo.Rates {
		model := ratio.Scale(r)
		pt := RatePoint{P: r, PL: fo.RateModel(model)}
		if (eo.MCShots > 0 || adaptive) && r >= eo.MCMinRate {
			// Offset the seed per point so rates do not share RNG streams;
			// the rule is shared with the job layer (sim.PointSeed), so a
			// sharded job over the same grid samples identical streams.
			seed := sim.PointSeed(eo.Seed, i)
			target, budget := 0.0, eo.MCShots
			if adaptive {
				target, budget = eo.TargetRSE, eo.MaxShots
			}
			mcStart := time.Now()
			ar, err := est.AdaptiveModel(ctx, method, model, target, budget, seed, eo.Workers)
			if err != nil {
				return EstimateResult{}, estimateError(err)
			}
			res.MCSeconds += time.Since(mcStart).Seconds()
			pt.MC = ar.PL
			pt.Shots = ar.Shots
			pt.RSE = ar.RSE
			pt.CILo, pt.CIHi = ar.CILo, ar.CIHi
			pt.Method = ar.Method.String()
			pt.EffSamples = ar.EffectiveSamples
			pt.WeightVar = ar.WeightVariance
			res.Engine = est.EngineInUse().String()
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// estimateError maps the simulator's validation sentinels onto the facade
// taxonomy (ErrBadOptions); everything else — notably context cancellation —
// passes through unchanged.
func estimateError(err error) error {
	for _, sentinel := range []error{sim.ErrBadShots, sim.ErrBadSamples, sim.ErrBadOrder, sim.ErrBadTarget, sim.ErrBadRate} {
		if errors.Is(err, sentinel) {
			return badOptions("%w", err)
		}
	}
	return err
}

// LogGrid returns points log-spaced rates in [lo, hi] inclusive, the grid
// shape of the paper's Fig. 4. It requires lo > 0 (the spacing is
// logarithmic), hi >= lo and points >= 1; violations wrap ErrBadOptions.
// points == 1 deliberately returns the single-point grid {lo} — hi only
// shapes the spacing, and with one point there is no spacing to shape.
func LogGrid(lo, hi float64, points int) ([]float64, error) {
	switch {
	case lo <= 0:
		return nil, badOptions("log grid lower bound %g must be > 0", lo)
	case hi < lo:
		return nil, badOptions("log grid upper bound %g below lower bound %g", hi, lo)
	case points < 1:
		return nil, badOptions("log grid needs >= 1 points, got %d", points)
	case points == 1:
		return []float64{lo}, nil
	}
	out := make([]float64, points)
	for i := range out {
		f := float64(i) / float64(points-1)
		out[i] = math.Exp(math.Log(lo) + f*(math.Log(hi)-math.Log(lo)))
	}
	return out, nil
}
