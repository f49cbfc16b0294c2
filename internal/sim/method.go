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

	// MethodRare forces the >= 1-fault conditional (rare-event) estimator;
	// it requires every class rate below 1 and at least one fault to
	// condition on.
	MethodRare
)

// ErrBadRate rejects noise models the rare-event estimator cannot condition
// on: a model that fires no fault on the protocol (every rate 0) has nothing
// to condition on, and a class rate >= 1 makes the conditioning vacuous
// (direct sampling is already exact there).
var ErrBadRate = errors.New("sim: physical rate outside (0,1) for the rare-event estimator")

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

// resolveMethodModel maps a requested method to the one that will run: an
// explicit MethodRare needs every class rate below 1 and a strictly positive
// conditioning probability under the model (ErrBadRate otherwise), which for
// noise.Uniform(p) is the requirement 0 < p < 1.
func (est *Estimator) resolveMethodModel(method Method, m noise.Model) (Method, error) {
	switch method {
	case MethodRare:
		if m.MaxRate() >= 1 {
			return method, fmt.Errorf("%w: max class rate = %g", ErrBadRate, m.MaxRate())
		}
		if noise.CondProbModel(m, est.ClassCounts()) <= 0 {
			return method, fmt.Errorf("%w: model fires no faults on this protocol", ErrBadRate)
		}
		return MethodRare, nil
	case MethodDirect:
		return MethodDirect, nil
	default:
		return est.CrossoverModel(m), nil
	}
}

// AdaptiveModel estimates the logical error rate under the noise model m —
// noise.Uniform(p) for the paper's E1_1 model — with an adaptive stopping
// rule: sampling proceeds in fixed 4096-shot blocks across a bounded worker
// pool until the relative standard error of the estimate drops to targetRSE
// or maxShots is reached, whichever comes first. targetRSE == 0 disables the
// early stop, so exactly maxShots shots run.
//
// method selects direct Monte-Carlo, the rare-event conditional estimator
// (see RareEventAdaptiveModel), or — MethodAuto — the crossover policy
// (CrossoverModel). maxShots must be positive (ErrBadShots), targetRSE in
// [0, 1) (ErrBadTarget), and an explicit MethodRare needs a model it can
// condition on (ErrBadRate). workers <= 0 selects DefaultWorkers(). Every
// block's RNG stream is derived from seed via the SplitMix64 sequence keyed
// by block index, so the result is a pure function of (seed, maxShots,
// targetRSE, engine) on every machine: the worker count only changes
// wall-clock time, never the pooled (shots, fails). The final block is
// clamped to the remaining budget, so the reported Shots never exceeds
// maxShots. Cancelling ctx stops every worker promptly and returns
// ctx.Err().
func (est *Estimator) AdaptiveModel(ctx context.Context, method Method, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (AdaptiveResult, error) {
	res, _, err := est.adaptive(ctx, method, m, targetRSE, maxShots, seed, workers)
	return res, err
}

// adaptive is the one driver behind AdaptiveModel and
// RareEventAdaptiveModel: it validates the arguments, resolves the method,
// runs one BlockRunner per worker under the block scheduler and finishes the
// pooled counts with Counts.ResultModel — the finisher the job layer applies
// to its checkpointed shards. It also returns the pooled counts, whose
// strata the rare-event view reports.
func (est *Estimator) adaptive(ctx context.Context, method Method, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (AdaptiveResult, Counts, error) {
	if maxShots <= 0 {
		return AdaptiveResult{}, Counts{}, fmt.Errorf("%w: %d max shots", ErrBadShots, maxShots)
	}
	if targetRSE < 0 || targetRSE >= 1 {
		return AdaptiveResult{}, Counts{}, fmt.Errorf("%w: %g outside [0,1)", ErrBadTarget, targetRSE)
	}
	method, err := est.resolveMethodModel(method, m)
	if err != nil {
		return AdaptiveResult{}, Counts{}, err
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}

	// Per-worker block runners persist across blocks; the RNG state is
	// re-keyed per block so the runner owner does not matter.
	ws := make([]*BlockRunner, workers)
	for w := range ws {
		if ws[w], err = est.NewBlockRunnerModel(method, m); err != nil {
			return AdaptiveResult{}, Counts{}, err
		}
	}
	runBlock := func(w, b, n int) int { return ws[w].RunBlock(ctx, seed, b, n) }

	start := time.Now()
	shots, fails, err := runAdaptive(ctx, targetRSE, maxShots, workers, runBlock)
	if err != nil {
		return AdaptiveResult{}, Counts{}, err
	}

	// Merge the per-worker counts; integer sums are order-independent, so
	// the totals share the block scheduler's worker-count determinism. The
	// pooled (shots, fails) necessarily equal runAdaptive's, which remain
	// authoritative for the round-clamped totals.
	parts := make([]Counts, len(ws))
	for w, r := range ws {
		parts[w] = r.Counts()
	}
	pooled := PoolCounts(parts...)
	pooled.Shots, pooled.Fails = int64(shots), int64(fails)

	var counts [3]int // the direct finisher ignores them
	if method == MethodRare {
		counts = est.ClassCounts()
	}
	res, err := pooled.ResultModel(method, m, counts)
	if err != nil {
		return AdaptiveResult{}, Counts{}, err
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		res.ShotsPerSec = float64(shots) / elapsed
	}
	return res, pooled, nil
}
