package sim

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/noise"
)

// adaptiveChunk is the number of shots in one sampling block, the unit of
// deterministic work distribution: each block owns an RNG stream derived
// from its block index (not from the worker that happens to run it), so the
// pooled (shots, fails) counts are independent of the worker count. It is a
// multiple of 64 so batch-engine blocks run whole lane words except in the
// (clamped) final block of a budget.
const adaptiveChunk = 4096

// adaptiveBlocksPerRound is the number of blocks between stopping-rule
// checks. It is a fixed constant — deliberately not scaled by the worker
// count, which would make the stopping decision (and therefore the reported
// shot totals) depend on the machine: large enough that per-round
// synchronization is invisible in the throughput, small enough that an easy
// target stops within ~10^5 shots.
const adaptiveBlocksPerRound = 32

// blockSeed derives the RNG seed of sampling block b from the caller's
// seed via the SplitMix64 sequence; successive block indices get
// well-separated streams.
func blockSeed(seed int64, b int) uint64 {
	return noise.SplitMix64{State: uint64(seed)}.Seq(uint64(b))
}

// AdaptiveResult reports an adaptive (or fixed-budget) Monte-Carlo estimate
// together with its statistical quality. Direct estimates fill the direct
// fields only; rare-event estimates (Method == MethodRare) additionally
// carry the conditioning weight and the weighted-sample diagnostics.
type AdaptiveResult struct {
	// PL is the estimated logical error rate: Fails/Shots for direct
	// sampling, CondP·Fails/Shots for the rare-event estimator.
	PL float64

	// Shots and Fails are the executed shot count and observed failures.
	// For the rare-event estimator both count conditional (>= 1 fault)
	// shots.
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

	// CondP is the conditioning weight P(#faults >= 1) applied to the
	// conditional failure proportion; 1 for direct sampling.
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
// adaptive estimator, for both methods. The budget is cut into
// fixed blocks of adaptiveChunk shots; workers claim block indices from a
// shared atomic queue and call runBlock(worker, block, n), which must sample
// exactly n shots seeded by the block index and return the failure count.
// Because the stream is keyed by block — not worker — and the stopping rule
// is evaluated at fixed round boundaries, the pooled (shots, fails)
// sequence is a pure function of (seed, targetRSE, maxShots, engine):
// the worker count changes wall-clock time only.
func runAdaptive(ctx context.Context, targetRSE float64, maxShots, workers int, runBlock func(worker, block, n int) int) (shots, fails int, err error) {
	totalBlocks := (maxShots + adaptiveChunk - 1) / adaptiveChunk
	if workers > totalBlocks {
		workers = totalBlocks
	}
	results := make([]int, workers)
	for start := 0; start < totalBlocks; {
		end := start + adaptiveBlocksPerRound
		if end > totalBlocks {
			end = totalBlocks
		}
		next := int64(start)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				count := 0
				for ctx.Err() == nil {
					b := int(atomic.AddInt64(&next, 1)) - 1
					if b >= end {
						break
					}
					n := adaptiveChunk
					if rem := maxShots - b*adaptiveChunk; n > rem {
						n = rem
					}
					count += runBlock(w, b, n)
				}
				results[w] = count
			}(w)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		for w, c := range results {
			fails += c
			results[w] = 0
		}
		endShot := end * adaptiveChunk
		if endShot > maxShots {
			endShot = maxShots
		}
		shots = endShot
		start = end
		if targetRSE > 0 && fails > 0 {
			if rse := RSE(int64(fails), int64(shots)); rse <= targetRSE {
				break
			}
		}
	}
	return shots, fails, nil
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
