package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/noise"
)

// Method selects the Monte-Carlo sampling method of the adaptive estimator.
type Method uint8

// Method values.
const (
	// MethodAuto picks the method by the crossover policy: the rare-event
	// conditional estimator when conditioning on >= 1 fault discards at
	// least half of the direct sampling effort (P(#faults >= 1) < 0.5),
	// direct Monte-Carlo otherwise.
	MethodAuto Method = iota

	// MethodDirect forces direct Monte-Carlo sampling.
	MethodDirect

	// MethodRare forces the conditional (rare-event) estimator; it
	// requires every class rate below 1 and at least one fault to condition
	// on. Resolve picks how many faults every shot is conditioned on.
	MethodRare
)

// ErrBadRate rejects noise models an estimator cannot draw faults from. For
// the rare-event estimator, a model that fires no fault on the protocol
// (every rate 0) has nothing to condition on, and a class rate >= 1 makes
// the conditioning vacuous (direct sampling is already exact there). For
// the stratified estimator, a ratio needs a positive class weight and no
// negative, NaN or infinite one.
var ErrBadRate = errors.New("sim: noise rates unusable by the estimator")

// ErrBadConditioning rejects a rare-event conditioning the protocol cannot
// be sampled under: a fault count other than 1 or 2, or k = 2 on a protocol
// where a single fault fails (the K >= 2 law would drop its failures) or
// where no shot can hold two faults.
var ErrBadConditioning = errors.New("sim: rare-event conditioning unusable")

// rareCrossover is the auto-selection threshold on P(#faults >= 1): below
// it the conditional estimator needs fewer than half the shots of direct
// Monte-Carlo for the same precision, which more than pays for its
// per-location bookkeeping.
const rareCrossover = 0.5

// ParseMethod resolves a method name: "" and "auto" select MethodAuto,
// "direct" and "rare" their methods.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "auto":
		return MethodAuto, nil
	case "direct":
		return MethodDirect, nil
	case "rare":
		return MethodRare, nil
	}
	return MethodAuto, fmt.Errorf("sim: unknown method %q (want auto, direct or rare)", s)
}

// String returns the method's ParseMethod name.
func (m Method) String() string {
	switch m {
	case MethodDirect:
		return "direct"
	case MethodRare:
		return "rare"
	default:
		return "auto"
	}
}

// CrossoverModel reports the method MethodAuto resolves to under the noise
// model m: MethodRare when every class rate lies below 1 and
// 0 < P(#faults >= 1) < the crossover threshold over the protocol's
// per-class location counts — for noise.Uniform(p), 1-(1-p)^N — and
// MethodDirect otherwise.
func (est *Estimator) CrossoverModel(m noise.Model) Method {
	if m.MaxRate() < 1 {
		if cp := noise.CondProbModel(m, est.ClassCounts()); cp > 0 && cp < rareCrossover {
			return MethodRare
		}
	}
	return MethodDirect
}

// Sampling is a resolved Monte-Carlo sampling choice, carried as data from
// the estimator that resolves it (Resolve) to every runner that samples it
// (NewBlockRunner) and to the finisher that reports it
// (Counts.ResultModel): the method that runs and, for the rare-event
// method, how many faults every shot is conditioned on and the exact
// probability of that many.
type Sampling struct {
	// Method is MethodDirect or MethodRare, never MethodAuto.
	Method Method

	// MinFaults is the rare-event conditioning k: every shot holds at
	// least k faults. It is 1 or 2 for MethodRare and 0 for direct; a
	// recorded rare choice with 0 predates k = 2 and means 1.
	MinFaults int

	// CondP is the conditioning weight P(#faults >= k) under the resolved
	// noise model, 1 for direct. Runners ignore it; the finisher scales
	// the conditional failure proportion by it.
	CondP float64
}

// k returns the conditioning fault count of a rare-event sampling: its
// MinFaults, with 0 read as 1.
func (s Sampling) k() int { return max(1, s.MinFaults) }

// Resolve maps a requested method to the sampling that runs under the noise
// model m; it is the one place the choice is made. MethodDirect stays
// direct and MethodAuto follows the crossover policy (CrossoverModel). A
// rare-event run, requested or chosen by auto, conditions every shot on
// k = 2 faults when no single fault on the fault-free path fails (the
// single-fault table passes, so a failing shot holds at least two faults)
// and P(#faults >= 2) > 0, and on k = 1 otherwise. An explicit MethodRare
// needs every class rate below 1 and a model that fires at least one fault
// on the protocol (ErrBadRate), which for noise.Uniform(p) is 0 < p < 1.
// A protocol past the batch engine's packing limits resolves to no
// sampling (ErrNotCompiled).
func (est *Estimator) Resolve(method Method, m noise.Model) (Sampling, error) {
	if err := est.compiled(); err != nil {
		return Sampling{}, err
	}
	switch method {
	case MethodDirect:
		return Sampling{Method: MethodDirect, CondP: 1}, nil
	case MethodRare:
	default:
		if est.CrossoverModel(m) == MethodDirect {
			return Sampling{Method: MethodDirect, CondP: 1}, nil
		}
	}
	s, err := est.rare(1, m)
	if err != nil {
		return s, err
	}
	if s2, err := est.rare(2, m); err == nil {
		return s2, nil
	}
	return s, nil
}

// rare returns the rare-event sampling conditioned on k faults under m
// (k = 0 reads as 1), or why it cannot run: a class rate >= 1 or a model
// that fires no fault (ErrBadRate), or a conditioning the protocol does not
// support (ErrBadConditioning). P(#faults >= 1) comes from the fault-free
// path's class counts, P(#faults >= 2) from the single-fault table.
func (est *Estimator) rare(k int, m noise.Model) (Sampling, error) {
	if m.MaxRate() >= 1 {
		return Sampling{}, fmt.Errorf("%w: max class rate = %g", ErrBadRate, m.MaxRate())
	}
	cp := noise.CondProbModel(m, est.ClassCounts())
	if cp <= 0 {
		return Sampling{}, fmt.Errorf("%w: model fires no faults on this protocol", ErrBadRate)
	}
	switch k {
	case 0, 1:
		return Sampling{Method: MethodRare, MinFaults: 1, CondP: cp}, nil
	case 2:
		tab := est.Singles()
		if !tab.Pass() {
			return Sampling{}, fmt.Errorf("%w: a single fault fails, so shots with one fault carry failure mass", ErrBadConditioning)
		}
		if cp = tab.CondProb(m); cp <= 0 {
			return Sampling{}, fmt.Errorf("%w: no shot can hold two faults under this model", ErrBadConditioning)
		}
		return Sampling{Method: MethodRare, MinFaults: 2, CondP: cp}, nil
	}
	return Sampling{}, fmt.Errorf("%w: %d faults (want 1 or 2)", ErrBadConditioning, k)
}

// AdaptiveModel estimates the logical error rate under the noise model m —
// noise.Uniform(p) for the paper's E1_1 model — with an adaptive stopping
// rule: sampling proceeds in fixed 4096-shot blocks across a bounded worker
// pool until the relative standard error of the estimate drops to targetRSE
// or maxShots is reached, whichever comes first. targetRSE == 0 disables the
// early stop, so exactly maxShots shots run.
//
// method selects direct Monte-Carlo, the rare-event estimator, or —
// MethodAuto — the crossover policy (CrossoverModel); Resolve makes the
// choice. The rare-event estimator draws every shot from the exact
// conditional distribution given at least k faults (k = 2 when no single
// fault fails, see noise.NewCondSampler2; k = 1 otherwise, see
// noise.NewCondSamplerModel), so no sampling effort is spent on shots that
// cannot fail, and reweights the conditional failure proportion q by the
// exact conditioning probability CondP = P(#faults >= k) to the
// unconditional PL = CondP·q; targetRSE applies to PL, whose relative
// error equals that of q since CondP is an exact constant.
//
// maxShots must be positive (ErrBadShots), targetRSE in [0, 1)
// (ErrBadTarget), an explicit MethodRare needs a model it can condition
// on (ErrBadRate), and the protocol must have compiled (ErrNotCompiled).
// workers <= 0 selects DefaultWorkers(). Every block's RNG stream is
// derived from seed via the SplitMix64 sequence keyed by block index, so
// the result is a pure function of (seed, maxShots, targetRSE) on every
// machine: the worker count only changes wall-clock time,
// never the pooled (shots, fails). The final block is clamped to the
// remaining budget, so the reported Shots never exceeds maxShots.
// Cancelling ctx stops every worker promptly and returns ctx.Err().
func (est *Estimator) AdaptiveModel(ctx context.Context, method Method, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (AdaptiveResult, error) {
	res, _, err := est.adaptive(ctx, method, m, targetRSE, maxShots, seed, workers)
	return res, err
}

// adaptive is the driver behind AdaptiveModel: it validates the budget,
// resolves the sampling and runs it (sample). It also returns the pooled
// counts, whose strata break a rare-event run down by realized fault count.
func (est *Estimator) adaptive(ctx context.Context, method Method, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (AdaptiveResult, Counts, error) {
	if maxShots <= 0 {
		return AdaptiveResult{}, Counts{}, fmt.Errorf("%w: %d max shots", ErrBadShots, maxShots)
	}
	if targetRSE < 0 || targetRSE >= 1 {
		return AdaptiveResult{}, Counts{}, fmt.Errorf("%w: %g outside [0,1)", ErrBadTarget, targetRSE)
	}
	s, err := est.Resolve(method, m)
	if err != nil {
		return AdaptiveResult{}, Counts{}, err
	}
	return est.sample(ctx, s, m, targetRSE, maxShots, seed, workers)
}

// sample runs a resolved sampling under a validated budget: one BlockRunner
// per worker — never more runners than blocks — under the block scheduler,
// finishing the pooled counts with Counts.ResultModel, the finisher the job
// layer applies to its checkpointed shards.
func (est *Estimator) sample(ctx context.Context, s Sampling, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (AdaptiveResult, Counts, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}

	// Per-worker block runners persist across blocks; the RNG state is
	// re-keyed per block so the runner owner does not matter.
	var err error
	runners := make([]*BlockRunner, min(workers, NumBlocks(maxShots)))
	for i := range runners {
		if runners[i], err = est.NewBlockRunner(s, m); err != nil {
			return AdaptiveResult{}, Counts{}, err
		}
	}

	start := time.Now()
	pooled, err := runAdaptive(ctx, runners, seed, targetRSE, maxShots)
	if err != nil {
		return AdaptiveResult{}, Counts{}, err
	}

	var counts [3]int // the direct finisher ignores them
	if s.Method == MethodRare {
		counts = est.ClassCounts()
	}
	res, err := pooled.ResultModel(s, m, counts)
	if err != nil {
		return AdaptiveResult{}, Counts{}, err
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		res.ShotsPerSec = float64(pooled.Shots) / elapsed
	}
	return res, pooled, nil
}
