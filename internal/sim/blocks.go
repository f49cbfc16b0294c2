package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/noise"
)

// Block geometry of the deterministic adaptive scheduler, exported so the
// distributed job layer (internal/jobs) shards work on exactly the same
// grid the in-process estimator samples on: a point's budget is cut into
// BlockShots-shot blocks whose RNG streams are keyed by block index, and
// the stopping rule is evaluated every BlocksPerRound blocks. Any scheduler
// that runs the same blocks with the same seed and pools the counts — no
// matter how many workers, processes or machines it spreads them over —
// reproduces the single-process (shots, fails) sequence bit-identically.
const (
	// BlockShots is the number of shots in one sampling block (a multiple
	// of 64, so batch blocks run whole lane words except in the clamped
	// final block of a budget).
	BlockShots = 4096

	// BlocksPerRound is the number of blocks between stopping-rule checks.
	// It is a fixed constant — deliberately not scaled by the worker
	// count, which would make the stopping decision (and therefore the
	// reported shot totals) depend on the machine: large enough that
	// per-round synchronization is invisible in the throughput, small
	// enough that an easy target stops within ~10^5 shots.
	BlocksPerRound = 32
)

// NumBlocks returns the number of blocks a budget of the given shots is cut
// into: full BlockShots blocks and, when the budget is not a multiple of
// BlockShots, one truncated final block.
func NumBlocks(budget int) int {
	return (budget + BlockShots - 1) / BlockShots
}

// BlockLen returns the shot count of block b under the budget: BlockShots,
// except for the final block, which is clamped to what is left of the
// budget so no run ever samples past it.
func BlockLen(budget, b int) int {
	return min(BlockShots, budget-b*BlockShots)
}

// blockSeed derives the RNG seed of sampling block b from the caller's
// seed via the SplitMix64 sequence; successive block indices get
// well-separated streams.
func blockSeed(seed int64, b int) uint64 {
	return noise.SplitMix64{State: uint64(seed)}.Seq(uint64(b))
}

// PointSeed derives the sampling seed of curve point i from a run seed, the
// convention shared by Protocol.Estimate and the job layer: offsetting the
// seed per point keeps rates from sharing RNG streams, and using one shared
// rule keeps a sharded job bit-identical to an in-process estimate of the
// same grid.
func PointSeed(seed int64, point int) int64 {
	return seed + int64(point+1)*0x51ED270B
}

// RSE returns the relative standard error sqrt((1-q)/fails) of a binomial
// failure proportion q = fails/shots — the adaptive stopping statistic,
// identical for the direct and rare-event estimators since the rare-event
// conditioning weight cancels. It is 0 when fails (or shots) is not
// positive: the RSE is undefined without observed failures.
func RSE(fails, shots int64) float64 {
	if fails <= 0 || shots <= 0 {
		return 0
	}
	return math.Sqrt((1 - float64(fails)/float64(shots)) / float64(fails))
}

// rareMaxW is the highest separately-tracked fault-count stratum; shots
// with more realized faults (possible only through correction blocks
// extending the trajectory) collapse into it.
const rareMaxW = 63

// CondWeightsModel returns the conditional fault-count distribution
// P(K = w | K >= 1) for w = 0..maxW under the noise model m, where K counts
// faults over the fault-free path with the given per-class location counts:
// weights[0] is always 0, and the weights over the reachable orders sum to
// exactly 1. For a uniform-rate model K ~ Binomial(N, p) over the total N
// (only the total of counts matters), so
// weights[w] = C(N,w) p^w (1-p)^(N-w) / (1-(1-p)^N); otherwise K is the sum
// of the independent class binomials Binomial(counts[c], p_c), whose mass
// comes from their exact convolution (orderPMFModel). The denominator is
// noise.CondProbModel. Boundary rates take their exact limits NaN/Inf-free:
// a model with no fault to condition on returns all zeros, and a rate-1
// class contributes its point mass at counts[c].
func CondWeightsModel(counts [3]int, maxW int, m noise.Model) []float64 {
	weights := make([]float64, maxW+1)
	condP := noise.CondProbModel(m, counts)
	if condP <= 0 {
		return weights
	}
	p, uniform := m.UniformRate()
	n := counts[0] + counts[1] + counts[2]
	var pmf []float64
	if !uniform {
		pmf = orderPMFModel(counts, maxW, m)
	}
	for w := 1; w <= maxW; w++ {
		var mass float64
		switch {
		case !uniform:
			mass = pmf[w]
		case w <= n:
			mass = binomPMF(n, w, p)
		}
		// The log-space binomial mass can overshoot the exact ratio by a
		// few ulps (exp(log p) != p); clamp so the result is always a
		// probability.
		if weights[w] = mass / condP; weights[w] > 1 {
			weights[w] = 1
		}
	}
	return weights
}

// StratumCount is the exactly-poolable view of one realized-fault-count
// stratum: raw integer counts, no derived statistics.
type StratumCount struct {
	// W is the realized fault count of the stratum.
	W int `json:"w"`

	// Shots and Fails are the conditional shots that realized W faults and
	// how many of them failed.
	Shots int64 `json:"shots"`
	Fails int64 `json:"fails"`
}

// Counts is the raw outcome of a sampling slice — a block, a shard, a whole
// run — in the exactly-poolable representation the distributed job layer
// checkpoints and aggregates: (shots, fails) integer pairs sum exactly, so
// pooling N slices and finishing the pool (ResultModel) is bit-identical to
// having sampled the union in one process. Strata carry the rare-event
// estimator's per-fault-count breakdown (sorted by W, only strata that
// received shots); direct sampling leaves it nil.
type Counts struct {
	// Shots and Fails are the executed shot count and observed failures of
	// the slice.
	Shots int64 `json:"shots"`
	Fails int64 `json:"fails"`

	// Strata is the realized-fault-count breakdown of the same shots, in
	// increasing W order; nil for direct sampling.
	Strata []StratumCount `json:"strata,omitempty"`
}

// Converged is the adaptive stopping rule, evaluated on pooled counts at
// round boundaries by the in-process estimator and the job layer alike: a
// positive target RSE met by a pool that has observed at least one failure
// (the RSE is undefined without failures). A target of 0 never stops early.
func (c Counts) Converged(targetRSE float64) bool {
	return targetRSE > 0 && c.Fails > 0 && RSE(c.Fails, c.Shots) <= targetRSE
}

// Validate checks that c has the shape of counts sampled under s, the
// shape BlockRunner.Counts and PoolCounts produce and ResultModel trusts:
// fails within [0, Shots]; no strata unless s.Method is MethodRare; and for
// MethodRare conditioned on k faults, strata in strictly increasing W
// within [k, rareMaxW] — every conditional shot holds at least k faults —
// each with fails within [0, shots], whose shots and fails sum exactly to
// the totals. Counts that cross a process boundary must pass it before they
// are pooled: a stratum outside the range or a missing breakdown would
// otherwise finish silently into different diagnostics.
func (c Counts) Validate(s Sampling) error {
	if c.Shots < 0 || c.Fails < 0 || c.Fails > c.Shots {
		return fmt.Errorf("sim: %d fails out of %d shots", c.Fails, c.Shots)
	}
	if s.Method != MethodRare {
		if len(c.Strata) > 0 {
			return fmt.Errorf("sim: %v counts carry %d strata", s.Method, len(c.Strata))
		}
		return nil
	}
	k := s.k()
	var shots, fails int64
	for i, s := range c.Strata {
		switch {
		case s.W < k || s.W > rareMaxW:
			return fmt.Errorf("sim: stratum w=%d outside [%d, %d]", s.W, k, rareMaxW)
		case i > 0 && s.W <= c.Strata[i-1].W:
			return fmt.Errorf("sim: stratum w=%d repeated or out of order", s.W)
		case s.Shots < 0 || s.Fails < 0 || s.Fails > s.Shots:
			return fmt.Errorf("sim: stratum w=%d has %d fails out of %d shots", s.W, s.Fails, s.Shots)
		case s.Shots > c.Shots-shots:
			return fmt.Errorf("sim: strata hold more than the %d shots", c.Shots)
		}
		shots += s.Shots
		fails += s.Fails
	}
	if shots != c.Shots || fails != c.Fails {
		return fmt.Errorf("sim: strata sum (%d shots, %d fails) disagrees with totals (%d, %d)",
			shots, fails, c.Shots, c.Fails)
	}
	return nil
}

// PoolCounts merges sampling slices by exact integer addition: pooled shots
// and fails are the sums, and strata are merged stratum-wise by W. Because
// every operation is an integer sum, the result is independent of the order
// and grouping of the parts — the "sums exactly" contract that makes
// adaptive estimation embarrassingly shardable: workers, replicas and
// checkpoint slices can be pooled in any order and the coordinator's
// recomputed statistics (ResultModel) match a single-process run
// bit-for-bit.
func PoolCounts(parts ...Counts) Counts {
	var out Counts
	strata := map[int]*StratumCount{}
	for _, c := range parts {
		out.Shots += c.Shots
		out.Fails += c.Fails
		for _, s := range c.Strata {
			if acc, ok := strata[s.W]; ok {
				acc.Shots += s.Shots
				acc.Fails += s.Fails
			} else {
				sc := s
				strata[s.W] = &sc
			}
		}
	}
	for _, s := range strata {
		out.Strata = append(out.Strata, *s)
	}
	sort.Slice(out.Strata, func(i, j int) bool { return out.Strata[i].W < out.Strata[j].W })
	return out
}

// ResultModel finishes a pooled count into the derived statistics of an
// adaptive run sampled under s and the noise model m: the rate estimate,
// RSE and 95% Wilson confidence interval, plus — for MethodRare — the
// conditioning weight s.CondP = P(#faults >= k) with PL = CondP·q, the Kish
// effective sample size and the weight variance under the fault-count
// post-stratification weights of CondWeightsModel. Those weights are the
// fault-free-path binomial; a k = 2 pool has no stratum below 2, so its
// diagnostics are those of the binomial truncated to w >= 2 (the Kish size
// does not depend on the weights' normalization). It computes exactly what
// AdaptiveModel computes from its own in-process counts (they share this
// code), so a coordinator pooling checkpointed shard counts reproduces the
// single-process result bit-identically — except ShotsPerSec, which is
// wall-clock and stays 0 here.
//
// s must be resolved (MethodDirect or MethodRare, not MethodAuto). A
// direct pool's statistics do not depend on the model. counts holds the
// protocol's fault locations by class (Estimator.ClassCounts) and is used
// only by MethodRare; under a uniform-rate model only its total matters, so
// a uniform pool may pass the location total as a single class. MethodRare
// also requires every class rate below 1 and a positive s.CondP
// (ErrBadRate), and k of 1 or 2 (ErrBadConditioning). Counts with no shots
// wrap ErrBadShots.
func (c Counts) ResultModel(s Sampling, m noise.Model, counts [3]int) (AdaptiveResult, error) {
	if c.Shots <= 0 {
		return AdaptiveResult{}, fmt.Errorf("%w: cannot finish a pool of %d shots", ErrBadShots, c.Shots)
	}
	res := AdaptiveResult{
		Shots:  int(c.Shots),
		Fails:  int(c.Fails),
		Method: s.Method,
		RSE:    RSE(c.Fails, c.Shots),
	}
	q := float64(c.Fails) / float64(c.Shots)
	lo, hi := Wilson(int(c.Fails), int(c.Shots))
	switch s.Method {
	case MethodDirect:
		res.PL, res.CondP = q, 1
		res.CILo, res.CIHi = lo, hi
		res.EffectiveSamples = float64(c.Shots)
		return res, nil
	case MethodRare:
	default:
		return AdaptiveResult{}, fmt.Errorf("sim: Counts.ResultModel needs a resolved method (direct or rare), got %q", s.Method)
	}

	if m.MaxRate() >= 1 {
		return AdaptiveResult{}, fmt.Errorf("%w: max class rate = %g", ErrBadRate, m.MaxRate())
	}
	k, condP := s.k(), s.CondP
	if k > 2 {
		return AdaptiveResult{}, fmt.Errorf("%w: %d faults (want 1 or 2)", ErrBadConditioning, k)
	}
	if !(condP > 0 && condP <= 1) {
		return AdaptiveResult{}, fmt.Errorf("%w: conditioning weight %g outside (0, 1]", ErrBadRate, condP)
	}
	res.MinFaults = k
	res.PL, res.CondP = condP*q, condP
	res.CILo, res.CIHi = condP*lo, condP*hi

	weights := CondWeightsModel(counts, rareMaxW, m)
	var sumW, sumW2 float64
	for _, s := range c.Strata {
		if s.Shots <= 0 || s.W < 0 || s.W > rareMaxW {
			continue // W outside [0, rareMaxW] carries no binomial mass
		}
		sumW += weights[s.W]
		sumW2 += weights[s.W] * weights[s.W] / float64(s.Shots)
	}
	res.EffectiveSamples = float64(c.Shots)
	if sumW2 > 0 {
		res.EffectiveSamples = sumW * sumW / sumW2
	}
	if res.EffectiveSamples > 0 {
		res.WeightVariance = math.Max(0, float64(c.Shots)/res.EffectiveSamples-1)
	}
	return res, nil
}

// stratum is the block runner's bare per-fault-count accumulator.
type stratum struct{ shots, fails int }

// BlockRunner samples deterministic blocks of the adaptive scheduler's grid
// for one (sampling, noise model) pair: block b of a run seeded s always
// draws from the RNG stream keyed by (s, b), so any assignment of blocks to
// runners — across goroutines, processes or machines — accumulates the same
// per-block (shots, fails, strata) counts. It is the primitive under
// AdaptiveModel and the unit of work of the distributed job layer's shards.
//
// A BlockRunner is not safe for concurrent use; create one per worker. The
// accumulated Counts of a runner whose RunBlock was cut short by context
// cancellation are partial and must be discarded, never checkpointed.
type BlockRunner struct {
	est    *Estimator
	method Method // resolved: direct or rare

	// One 64-lane word per iteration through binj, which is csmp for the
	// rare method.
	bs   *BatchShot
	binj reseedableBatch
	csmp *noise.CondSampler

	shots  int64
	fails  int64
	strata [rareMaxW + 1]stratum
}

// reseedableBatch is a batch fault source whose stream can be re-keyed to a
// block: noise.SparseSampler for direct sampling, noise.CondSampler for
// rare-event sampling.
type reseedableBatch interface {
	noise.BatchInjector
	Reseed(seed uint64)
}

// NewBlockRunnerModel builds a block sampler for the noise model m —
// noise.Uniform(p) for the paper's model — under the sampling Resolve
// picks for method: MethodAuto resolves through the crossover policy
// (CrossoverModel), and an explicit MethodRare requires every class rate
// below 1 and a model that can fire at least one fault on the protocol
// (ErrBadRate).
func (est *Estimator) NewBlockRunnerModel(method Method, model noise.Model) (*BlockRunner, error) {
	s, err := est.Resolve(method, model)
	if err != nil {
		return nil, err
	}
	return est.NewBlockRunner(s, model)
}

// NewBlockRunner builds a block sampler for a resolved sampling under the
// noise model m: the sampling recorded for a job point or carried by a
// shard task, run exactly as recorded and never re-resolved. A rare-event
// sampling conditioned on k faults needs what est.rare needs of k
// (ErrBadRate, ErrBadConditioning). The runner samples on the batch
// engine, whose stream version (BatchStream) is part of the deterministic
// identity of the stream; a protocol past its packing limits is refused
// with ErrNotCompiled.
func (est *Estimator) NewBlockRunner(s Sampling, m noise.Model) (*BlockRunner, error) {
	if err := est.compiled(); err != nil {
		return nil, err
	}
	k := 0 // direct
	switch s.Method {
	case MethodDirect:
	case MethodRare:
		rs, err := est.rare(s.MinFaults, m)
		if err != nil {
			return nil, err
		}
		k = rs.MinFaults
	default:
		return nil, fmt.Errorf("sim: a block runner needs a resolved method (direct or rare), got %q", s.Method)
	}
	r := &BlockRunner{est: est, method: s.Method, bs: est.batch.NewShot()}
	switch k {
	case 2:
		r.csmp = noise.NewCondSampler2(m, est.Singles(), 0, &est.skips)
		r.binj = r.csmp
	case 1:
		r.csmp = noise.NewCondSamplerModel(m, est.LocationKinds(), 0, &est.skips)
		r.binj = r.csmp
	default:
		r.binj = noise.NewSparseSamplerModel(m, 0, &est.skips)
	}
	return r, nil
}

// RunBlock samples exactly n shots of block b of the run seeded seed,
// folding them into the runner's accumulated counts. The block's RNG stream
// depends only on (seed, b) — never on the runner, goroutine or prior
// blocks — which is what makes any block-to-worker assignment reproduce the
// same totals. Cancelling ctx returns early; the runner's accumulated
// Counts are then partial and must be discarded.
func (r *BlockRunner) RunBlock(ctx context.Context, seed int64, b, n int) {
	r.shots += int64(n)
	batch := r.est.batch
	r.binj.Reseed(blockSeed(seed, b))
	// One 64-lane word per iteration; the final word is masked to the
	// remainder so exactly n shots run and the reported total can never
	// exceed the budget. The context is polled once per wordPollShots: a
	// cancelCtx's Err takes its mutex, which every pool goroutine of a job
	// shares.
	for i := 0; i < n; i += 64 {
		if i%wordPollShots == 0 && ctx.Err() != nil {
			return
		}
		live := ^uint64(0)
		if rem := n - i; rem < 64 {
			live = 1<<uint(rem) - 1
		}
		if r.csmp != nil {
			r.csmp.Reset(live)
		}
		batch.Run(r.bs, r.binj, live)
		failed := batch.Judge(r.bs) // Judge reports live lanes only
		r.fails += int64(bits.OnesCount64(failed))
		if r.csmp != nil {
			for l := live; l != 0; l &= l - 1 {
				lane := uint(bits.TrailingZeros64(l))
				r.tally(int(r.csmp.Faults[lane]), failed>>lane&1 == 1)
			}
		}
	}
}

// tally bins one rare-event shot that realized k faults into its stratum;
// counts above rareMaxW share the top stratum.
func (r *BlockRunner) tally(k int, failed bool) {
	k = min(k, rareMaxW)
	r.strata[k].shots++
	if failed {
		r.strata[k].fails++
	}
}

// Counts snapshots the runner's accumulated totals in the poolable
// representation: pooled across runners (PoolCounts) they equal the totals
// of a single runner having executed every block.
func (r *BlockRunner) Counts() Counts {
	c := Counts{Shots: r.shots, Fails: r.fails}
	if r.method == MethodRare {
		for w, s := range r.strata {
			if s.shots > 0 {
				c.Strata = append(c.Strata, StratumCount{W: w, Shots: int64(s.shots), Fails: int64(s.fails)})
			}
		}
	}
	return c
}
