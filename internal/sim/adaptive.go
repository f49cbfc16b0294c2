package sim

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// AdaptiveResult reports an adaptive (or fixed-budget) Monte-Carlo estimate
// together with its statistical quality. Direct estimates fill the direct
// fields only; rare-event estimates (Method == MethodRare) additionally
// carry the conditioning weight and the weighted-sample diagnostics.
type AdaptiveResult struct {
	// PL is the estimated logical error rate: Fails/Shots for direct
	// sampling, CondP·Fails/Shots for the rare-event estimator.
	PL float64

	// Shots and Fails are the executed shot count and observed failures.
	// For the rare-event estimator both count conditional (>= MinFaults
	// faults) shots.
	Shots int
	Fails int

	// RSE is the relative standard error sqrt((1-q)/Fails) of the estimate,
	// where q is the per-shot failure proportion (the conditioning weight
	// cancels, so the same formula serves both methods). It is reported as
	// 0 when Fails == 0 (the RSE is undefined without failures — inspect
	// Fails).
	RSE float64

	// CILo and CIHi are the 95% Wilson score confidence interval for PL
	// (scaled by the conditioning weight for the rare-event estimator).
	CILo, CIHi float64

	// ShotsPerSec is the observed sampling throughput.
	ShotsPerSec float64

	// Method is the sampling method that actually ran: MethodDirect or
	// MethodRare (never MethodAuto — auto resolves before sampling).
	Method Method

	// MinFaults is the rare-event conditioning k — every shot held at
	// least k faults: 2 when no single fault fails, 1 otherwise (Resolve);
	// 0 for direct sampling.
	MinFaults int

	// CondP is the conditioning weight P(#faults >= k), k = MinFaults,
	// applied to the conditional failure proportion; 1 for direct
	// sampling.
	CondP float64

	// EffectiveSamples is the Kish effective sample size of the run under
	// the fault-count post-stratification weights; equal to Shots for
	// direct sampling (uniform weights).
	EffectiveSamples float64

	// WeightVariance is the relative variance of the per-shot
	// post-stratification weights (Shots/EffectiveSamples - 1); 0 for
	// direct sampling.
	WeightVariance float64
}

// runAdaptive drives the deterministic block-scheduled sampling loop of the
// adaptive estimator, for both methods. The budget is cut into the block
// grid (NumBlocks, BlockLen); one goroutine per runner claims block indices
// from a shared atomic queue and samples each on its runner. At every
// BlocksPerRound boundary the runners' counts are pooled and the run stops
// once the pool meets the target (Counts.Converged). Because the stream is
// keyed by block — not runner — and the stopping rule is evaluated at fixed
// round boundaries, the pooled counts are a pure function of (seed,
// targetRSE, maxShots): the runner count changes wall-clock time only.
func runAdaptive(ctx context.Context, runners []*BlockRunner, seed int64, targetRSE float64, maxShots int) (Counts, error) {
	totalBlocks := NumBlocks(maxShots)
	parts := make([]Counts, len(runners))
	var pooled Counts
	for start := 0; start < totalBlocks; start += BlocksPerRound {
		end := min(start+BlocksPerRound, totalBlocks)
		var next atomic.Int64
		next.Store(int64(start))
		var wg sync.WaitGroup
		for _, r := range runners {
			wg.Add(1)
			go func(r *BlockRunner) {
				defer wg.Done()
				for ctx.Err() == nil {
					b := int(next.Add(1)) - 1
					if b >= end {
						return
					}
					r.RunBlock(ctx, seed, b, BlockLen(maxShots, b))
				}
			}(r)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return Counts{}, err
		}
		for i, r := range runners {
			parts[i] = r.Counts()
		}
		if pooled = PoolCounts(parts...); pooled.Converged(targetRSE) {
			break
		}
	}
	return pooled, nil
}

// Wilson returns the 95% Wilson score confidence interval for a binomial
// proportion with the given failure and trial counts. Unlike the normal
// approximation it behaves sensibly at zero observed failures, which is the
// common case for fault-tolerant protocols at low physical rates.
func Wilson(fails, shots int) (lo, hi float64) {
	if shots <= 0 {
		return 0, 1
	}
	const z = 1.959963984540054 // Phi^-1(0.975)
	n := float64(shots)
	ph := float64(fails) / n
	denom := 1 + z*z/n
	center := ph + z*z/(2*n)
	half := z * math.Sqrt(ph*(1-ph)/n+z*z/(4*n*n))
	lo = (center - half) / denom
	hi = (center + half) / denom
	return math.Max(0, lo), math.Min(1, hi)
}
