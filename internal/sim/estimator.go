package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/noise"
)

// Validation sentinels of the estimation entry points. Callers dispatch
// with errors.Is; the dftsp facade maps all of them to its ErrBadOptions.
var (
	// ErrBadShots rejects non-positive shot counts and caps — the previous
	// behaviour was a silent 0/0 = NaN estimate.
	ErrBadShots = errors.New("sim: shot count must be positive")

	// ErrBadSamples rejects non-positive per-order sample counts when any
	// order >= 2 would be sampled (those strata were NaN before).
	ErrBadSamples = errors.New("sim: sample count must be positive")

	// ErrBadOrder rejects stratified fault orders outside [0, N]; orders
	// above the location count fed binomPMF a negative n-w before.
	ErrBadOrder = errors.New("sim: stratified fault order out of range")

	// ErrBadTarget rejects adaptive relative-standard-error targets
	// outside [0, 1).
	ErrBadTarget = errors.New("sim: target RSE out of range")

	// ErrNotCompiled refuses to sample a protocol that did not compile
	// into the batch engine, the only engine that samples. The returned
	// error wraps Compile's, which names the packing limit the protocol
	// exceeds.
	ErrNotCompiled = errors.New("sim: protocol exceeds the batch engine's packing limits")
)

// Estimator measures logical error rates of a protocol under a circuit-level
// noise.Model (the paper's E1_1 depolarizing model is noise.Uniform(p)),
// following the paper's evaluation: the protocol is followed by one perfect
// round of lookup-table error correction and a destructive Z-basis readout;
// a logical error is registered when the corrected result anticommutes with
// a logical operator of the prepared eigenstate (a logical Z for |0>_L,
// flipped by residual X errors).
//
// NewEstimator also compiles the protocol into its 64-lane Batch, the one
// engine that samples: every Monte-Carlo and fault-set entry point
// (AdaptiveModel, NewBlockRunnerModel, FaultOrderModel) runs on it, and on
// a protocol past its packing limits each returns ErrNotCompiled. Lane 0 of
// the Batch runs a single shot (newShot), which is how the single-fault
// table is built; it and the interpreted executor are bit-identical for a
// shared RNG stream.
//
// An Estimator is read-only and safe for concurrent use from construction
// on: any number of goroutines may call AdaptiveModel, NewBlockRunnerModel,
// FaultOrderModel, Judge, Resolve and the lazily built, sync.Once-guarded
// LocationKinds and Singles on it at once, each call keeping its own shot
// state.
type Estimator struct {
	P *core.Protocol

	batch      *Batch // the compiled protocol; nil if compilation failed
	compileErr error  // why compilation failed

	// Lazily built, shared by concurrent block runners: a resumed job
	// point's shard tasks are the first to ask for them.
	locOnce     sync.Once
	locKinds    []noise.LocKind // cached fault-free-path location kinds
	singlesOnce sync.Once
	singles     *noise.Singles // single-fault table; built by Singles
	verdicts    []uint64       // bit i: the verdict of the table's i-th entry

	// Geometric gap tables, one per chain rate, shared read-only by every
	// sampler a block runner builds on this estimator.
	skips noise.Skips
}

// LocationKinds returns the location-kind vector of the protocol's
// fault-free path in execution order — its length is the fault-location
// count N of the fault-order and rare-event estimators, and its classes feed
// the per-class conditional samplers and the fault-order enumerator —
// counting it on first use and caching it on the estimator.
func (est *Estimator) LocationKinds() []noise.LocKind {
	est.locOnce.Do(func() {
		ctr := &noise.Counter{}
		Run(est.P, ctr)
		est.locKinds = ctr.Kinds
	})
	return est.locKinds
}

// Singles returns the protocol's single-fault table (noise.Singles): every
// operator at every fault-free-path location, in location/operator order,
// with the verdict of the shot it causes and the location kinds of the
// trajectory it forces. It backs the k = 2 rare-event law and its
// resolution rule (Resolve), and carries the program's static location
// bound (Batch.reach) as its Reach. The table is built on first use — one
// single-fault shot per entry through newShot — and cached with each
// entry's verdict bit, which FaultOrderModel reads as order 1; concurrent
// callers share one build. It needs a compiled protocol (Batch() != nil).
func (est *Estimator) Singles() *noise.Singles {
	est.singlesOnce.Do(func() {
		kinds := est.LocationKinds()
		rec := &trajectory{}
		shot := est.newShot()
		tab := &noise.Singles{Reach: est.batch.reach()}
		i := 0
		for j, kind := range kinds {
			for oi, op := range noise.OpsFor(kind) {
				rec.kinds, rec.at, rec.op = rec.kinds[:0], j, op
				fail := shot(rec)
				tab.Add(j, oi, rec.kinds, fail)
				if i%64 == 0 {
					est.verdicts = append(est.verdicts, 0)
				}
				if fail {
					est.verdicts[i/64] |= 1 << uint(i%64)
				}
				i++
			}
		}
		est.singles = tab
	})
	return est.singles
}

// newShot returns a fresh one-shot-at-a-time evaluator that runs a shot
// under inj and reports its Judge verdict: lane 0 of the batch engine, a
// one-lane Batch.Run through the lane adapter, then bit 0 of Batch.Judge.
// The evaluator keeps its own shot state, so it must not be shared between
// goroutines.
func (est *Estimator) newShot() func(inj noise.Injector) bool {
	b := est.batch
	bs, l := b.NewShot(), &lane{}
	return func(inj noise.Injector) bool {
		l.inj = inj
		b.Run(bs, l, 1)
		return b.Judge(bs)&1 == 1
	}
}

// trajectory injects one fault, op at location at, and records the kinds
// of every location the shot executes.
type trajectory struct {
	kinds []noise.LocKind
	at    int
	op    noise.Fault
}

// Next implements noise.Injector.
func (t *trajectory) Next(kind noise.LocKind) noise.Fault {
	t.kinds = append(t.kinds, kind)
	if len(t.kinds)-1 == t.at {
		return t.op
	}
	return noise.Fault{}
}

// ClassCounts returns the per-class location counts of the fault-free path,
// indexed by noise.LocKind.
func (est *Estimator) ClassCounts() [3]int {
	return noise.CountKinds(est.LocationKinds())
}

// NewEstimator compiles the protocol into its 64-lane batch engine, whose
// dense decoder Judge shares (the minimum-weight table is built exactly
// once). When compilation fails the estimator keeps Compile's error, and
// every sampling entry point returns it wrapped in ErrNotCompiled; no
// fallback decoder is built.
func NewEstimator(p *core.Protocol) *Estimator {
	b, err := Compile(p)
	return &Estimator{P: p, batch: b, compileErr: err}
}

// Batch returns the 64-lane bit-parallel engine, or nil when the protocol
// exceeded the compiled engine's packing limits.
func (est *Estimator) Batch() *Batch { return est.batch }

// compiled returns nil when the protocol compiled, and otherwise
// ErrNotCompiled wrapping Compile's error.
func (est *Estimator) compiled() error {
	if est.batch != nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrNotCompiled, est.compileErr)
}

// Judge applies the perfect EC round to an outcome and reports a logical
// error in the paper's sense: after lookup-table correction, the residual X
// error anticommutes with a logical Z of the prepared eigenstate. Residual
// Z errors cannot cause a logical error on |0...0>_L — the state is a +1
// eigenstate of every logical Z, so any post-EC Z residual (which lies in
// span(Hz ∪ Lz)) acts trivially; this is also why the paper's simulation
// reads out only the Z logicals destructively. It decodes with the batch
// engine's dense table, so it needs a compiled protocol (Batch() != nil).
func (est *Estimator) Judge(out Outcome) bool {
	ex := out.Ex.Xor(est.batch.dec.Decode(out.Ex))
	for i := 0; i < est.P.Code.Lz.Rows(); i++ {
		if ex.Dot(est.P.Code.Lz.Row(i)) == 1 {
			return true
		}
	}
	return false
}

// FaultOrderResult holds the stratified conditional failure probabilities:
// F[w] is the probability of a logical error given exactly w faulted
// locations, estimated exactly for w ≤ 1 and by sampling above.
type FaultOrderResult struct {
	N int // fault locations on the fault-free path
	F []float64

	// ClassCounts breaks N down by location class (indexed by
	// noise.LocKind); populated by FaultOrderModel, and required by
	// RateModel under a per-class model.
	ClassCounts [3]int
}

// FaultOrderModel computes the stratified estimator (ARCHITECTURE.md, "The
// stratified fault-order estimator on the batch engine"): order w = 0
// and 1 are enumerated exhaustively — for a fault-tolerant protocol F[1]
// must be exactly 0, which doubles as the FT certificate — and orders
// 2..maxW are sampled with the given number of samples per order.
// Cancelling ctx aborts the sampling loops promptly with ctx.Err(); the
// single-fault table of order 1 is shared, so it is built whole and ctx is
// checked once it is there. Recombine with RateModel.
//
// The noise is given as a ratio model: the class rates of ratio are relative
// weights (their overall scale cancels — pass the model at any physical
// rate, the ratio vector itself, or noise.Uniform(1) for the paper's model),
// and ratio.Eta tilts the two-qubit operator menu. Locations are weighted by
// their class rate and operators by the menu weights, as published
// subset-sampling estimators do. The curve is not the p -> 0 law of the
// protocol: an order-w set is drawn from the N fault-free-path locations
// only, weighted by C(N,w)p^w, so fault pairs whose second fault runs in a
// correction branch the first one triggered — locations past N — are
// missing from order 2. At p = 1e-4 RateModel/p² is 33.4 / 21.5 / 491 on
// Steane / Surface / Carbon against an exact pair mass of 50.6 / 29.8 / 642,
// low by 34% / 28% / 23%; the rare-event estimator's k = 2 law
// (AdaptiveModel) samples those pairs exactly.
//
// Order 1 reads the verdicts of the single-fault table (Singles), built
// once per protocol and shared with the rare-event samplers. Sampled fault
// sets are evaluated 64 per word on the batch engine (a noise.BatchPlan
// lane per set, Batch.Run plus Batch.Judge). The sets, their draws from rng
// and their verdicts are those of a one-at-a-time interpreted evaluation,
// so F is bit-identical to it for the same rng.
//
// A protocol past the batch engine's packing limits is refused with
// ErrNotCompiled.
// maxW must lie in [0, N] where N is the protocol's fault location count,
// and may not exceed the locations of positive-weight classes, from which
// alone fault sets are drawn (violations wrap ErrBadOrder; orders above N
// used to feed binomPMF a negative n-w). Every class weight must be finite
// and non-negative, and at least one positive (violations wrap ErrBadRate).
// samples must be positive whenever maxW >= 2 requires sampling (violations
// wrap ErrBadSamples; those strata used to come out as 0/0 = NaN).
func (est *Estimator) FaultOrderModel(ctx context.Context, maxW, samples int, rng *rand.Rand, ratio noise.Model) (FaultOrderResult, error) {
	if err := est.compiled(); err != nil {
		return FaultOrderResult{}, err
	}
	if maxW < 0 {
		return FaultOrderResult{}, fmt.Errorf("%w: maxW %d < 0", ErrBadOrder, maxW)
	}
	if maxW >= 2 && samples <= 0 {
		return FaultOrderResult{}, fmt.Errorf("%w: %d samples for sampled orders 2..%d", ErrBadSamples, samples, maxW)
	}
	classW := [3]float64{ratio.P1Q, ratio.P2Q, ratio.PMeas}
	if w := classW[0] + classW[1] + classW[2]; !(w > 0) || math.IsInf(w, 0) || min(classW[0], classW[1], classW[2]) < 0 {
		return FaultOrderResult{}, fmt.Errorf("%w: class weights %v need one positive and none negative, NaN or infinite", ErrBadRate, classW)
	}
	kinds := est.LocationKinds()
	n := len(kinds)
	if maxW > n {
		return FaultOrderResult{}, fmt.Errorf("%w: maxW %d exceeds the %d fault locations", ErrBadOrder, maxW, n)
	}
	counts := noise.CountKinds(kinds)
	weighted := 0
	for k, c := range counts {
		if classW[k] > 0 {
			weighted += c
		}
	}
	if maxW > weighted {
		return FaultOrderResult{}, fmt.Errorf("%w: maxW %d exceeds the %d fault locations of positive-weight classes", ErrBadOrder, maxW, weighted)
	}

	law := newFaultLaw(kinds, ratio)
	ev := est.newSetEval(n)
	res := FaultOrderResult{N: n, F: make([]float64, maxW+1), ClassCounts: counts}
	if maxW >= 1 {
		est.Singles()
		if err := ctx.Err(); err != nil {
			return FaultOrderResult{}, err
		}
		res.F[1] = law.order1(est.verdicts)
	}
	for w := 2; w <= maxW; w++ {
		fails, err := ev.sampled(ctx, law, w, samples, rng)
		if err != nil {
			return FaultOrderResult{}, err
		}
		res.F[w] = float64(fails) / float64(samples)
	}
	return res, nil
}

// faultLaw is the fault-set law of one FaultOrderModel branch: how the
// sampled orders draw a location and its operator from rng, and how order 1
// weighs the single-fault verdicts. The uniform branch (the paper's E1_1
// conditionals) weighs locations and operators uniformly; the biased branch
// weighs locations by class rate and operators by the tilted menu. Each
// keeps its own draws, call for call.
type faultLaw struct {
	kinds   []noise.LocKind
	uniform bool

	// Biased branch: per-class operator weights and their cumulative
	// tables, class weights, per-class location lists and the cumulative
	// class-selection distribution.
	opW, opCum [3][]float64
	classW     [3]float64
	locIdx     [3][]int32
	classCum   [3]float64
	classTot   float64
}

// newFaultLaw builds the law of ratio over a fault-free path's location
// kinds; a uniform ratio at any scale selects the uniform branch.
func newFaultLaw(kinds []noise.LocKind, ratio noise.Model) *faultLaw {
	l := &faultLaw{kinds: kinds, uniform: ratio.IsUniform()}
	if l.uniform {
		return l
	}
	for k := range l.opW {
		l.opW[k] = noise.OpWeights(noise.LocKind(k), ratio.Eta)
		l.opCum[k] = make([]float64, len(l.opW[k]))
		cum := 0.0
		for i, w := range l.opW[k] {
			cum += w
			l.opCum[k][i] = cum
		}
		l.opCum[k][len(l.opCum[k])-1] = 1
	}
	l.classW = [3]float64{ratio.P1Q, ratio.P2Q, ratio.PMeas}
	for loc, kind := range kinds {
		l.locIdx[kind] = append(l.locIdx[kind], int32(loc))
	}
	for k := range l.classCum {
		l.classTot += l.classW[k] * float64(len(l.locIdx[k]))
		l.classCum[k] = l.classTot
	}
	return l
}

// loc draws a fault location.
func (l *faultLaw) loc(rng *rand.Rand) int {
	if l.uniform {
		return rng.Intn(len(l.kinds))
	}
	u := rng.Float64() * l.classTot
	kind := 0
	// Skip past lighter classes and — at exact cum boundaries — classes
	// that carry no mass at all.
	for kind < 2 && (u > l.classCum[kind] || l.classW[kind]*float64(len(l.locIdx[kind])) == 0) {
		kind++
	}
	idx := l.locIdx[kind]
	return int(idx[rng.Intn(len(idx))])
}

// op draws the fault operator at location loc.
func (l *faultLaw) op(rng *rand.Rand, loc int) noise.Fault {
	kind := l.kinds[loc]
	ops := noise.OpsFor(kind)
	if l.uniform {
		return ops[rng.Intn(len(ops))]
	}
	uo := rng.Float64()
	oi := 0
	for oi < len(ops)-1 && uo > l.opCum[kind][oi] {
		oi++
	}
	return ops[oi]
}

// order1 is F[1]: the law's weighted mean of the single-fault verdicts,
// bit i of verdicts holding the verdict of the i-th (location, operator)
// pair in location/operator order. The sums run in that order, as the
// one-at-a-time enumeration summed them.
func (l *faultLaw) order1(verdicts []uint64) float64 {
	var sum, totW float64
	i := 0
	for _, kind := range l.kinds {
		nops := len(noise.OpsFor(kind))
		var x float64
		for oi := 0; oi < nops; oi, i = oi+1, i+1 {
			switch {
			case verdicts[i/64]>>uint(i%64)&1 == 0:
			case l.uniform:
				x++
			default:
				x += l.opW[kind][oi]
			}
		}
		if l.uniform {
			sum += x / float64(nops)
		} else {
			sum += l.classW[kind] * x
			totW += l.classW[kind]
		}
	}
	if l.uniform {
		totW = float64(len(l.kinds))
	}
	return sum / totW
}

// setEval evaluates fault sets 64 per word: lane l of plan carries one set,
// and one Batch.Run plus Batch.Judge decides all of them.
type setEval struct {
	b     *Batch
	bs    *BatchShot
	plan  noise.BatchPlan
	stamp []int // per location: the last set that drew it
	set   int   // sets drawn so far
}

// newSetEval returns an evaluator for a path of n fault locations.
func (est *Estimator) newSetEval(n int) *setEval {
	return &setEval{b: est.batch, bs: est.batch.NewShot(), stamp: make([]int, n)}
}

// run decides the sets planned in the lanes of live, returns the mask of
// failing lanes and resets the plan for the next word.
func (ev *setEval) run(live uint64) uint64 {
	ev.b.Run(ev.bs, &ev.plan, live)
	fails := ev.b.Judge(ev.bs)
	ev.plan.Reset()
	return fails
}

// sampled draws samples sets of w distinct fault locations under law, one
// lane per set, and returns how many of them fail. ctx is polled once per
// word, before its sets are drawn.
func (ev *setEval) sampled(ctx context.Context, law *faultLaw, w, samples int, rng *rand.Rand) (int, error) {
	fails := 0
	for s := 0; s < samples; s += 64 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		lanes := min(64, samples-s)
		for lane := 0; lane < lanes; lane++ {
			ev.set++
			for k := 0; k < w; {
				loc := law.loc(rng)
				if ev.stamp[loc] == ev.set {
					continue
				}
				ev.stamp[loc] = ev.set
				ev.plan.Set(lane, loc, law.op(rng, loc))
				k++
			}
		}
		live := ^uint64(0)
		if lanes < 64 {
			live = 1<<uint(lanes) - 1
		}
		fails += bits.OnesCount64(ev.run(live))
	}
	return fails, nil
}

// RateModel evaluates the stratified logical error rate under the noise
// model m: pL = Σ_w P(K = w) F[w], with the unsampled tail (w > maxW)
// bounded by 1/2 as in dynamic subset sampling's upper bound. The fault
// count K is Binomial(N, p) for a uniform-rate m and otherwise the
// convolution of the three class binomials Binomial(n_c, p_c) over
// ClassCounts, which a per-class m therefore requires.
func (r FaultOrderResult) RateModel(m noise.Model) float64 {
	if p, ok := m.UniformRate(); ok {
		return r.rate(p)
	}
	pmf := orderPMFModel(r.ClassCounts, len(r.F)-1, m)
	total := 0.0
	covered := 0.0
	for w := 0; w < len(r.F); w++ {
		covered += pmf[w]
		total += pmf[w] * r.F[w]
	}
	total += 0.5 * math.Max(0, 1-covered)
	return total
}

// orderPMFModel returns the unconditional fault-count distribution
// P(K = w) for w = 0..maxW under per-class rates: the convolution of the
// three independent class binomials Binomial(counts[c], p_c). Boundary
// rates take their exact limits NaN/Inf-free via binomPMF's clamps.
func orderPMFModel(counts [3]int, maxW int, m noise.Model) []float64 {
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	out := make([]float64, 1, maxW+1)
	out[0] = 1
	for c, n := range counts {
		out = convolveBinom(out, n, rates[c], maxW)
	}
	for len(out) < maxW+1 {
		out = append(out, 0)
	}
	return out
}

// convolveBinom convolves a PMF vector with Binomial(n, p), truncating at
// order maxW (truncation is exact for the retained entries: order w only
// needs class orders <= w).
func convolveBinom(a []float64, n int, p float64, maxW int) []float64 {
	top := n
	if top > maxW {
		top = maxW
	}
	pmf := make([]float64, top+1)
	for w := 0; w <= top; w++ {
		pmf[w] = binomPMF(n, w, p)
	}
	hi := len(a) - 1 + top
	if hi > maxW {
		hi = maxW
	}
	res := make([]float64, hi+1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, pv := range pmf {
			if i+j > maxW {
				break
			}
			res[i+j] += av * pv
		}
	}
	return res
}

// rate is the uniform branch of RateModel: the single Binomial(N, p) fault
// count over the N fault locations.
func (r FaultOrderResult) rate(p float64) float64 {
	total := 0.0
	covered := 0.0
	for w := 0; w < len(r.F); w++ {
		aw := binomPMF(r.N, w, p)
		covered += aw
		total += aw * r.F[w]
	}
	total += 0.5 * math.Max(0, 1-covered)
	return total
}

// binomPMF returns C(n,w) p^w (1-p)^(n-w) computed in logs for stability.
// Boundary rates take their exact point-mass limits: without the p >= 1
// branch the w == n term would evaluate 0·log(1-1) = 0·(-Inf) = NaN.
func binomPMF(n, w int, p float64) float64 {
	if p <= 0 {
		if w == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if w == n {
			return 1
		}
		return 0
	}
	lg := lgamma(n+1) - lgamma(w+1) - lgamma(n-w+1) +
		float64(w)*math.Log(p) + float64(n-w)*math.Log1p(-p)
	return math.Exp(lg)
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
