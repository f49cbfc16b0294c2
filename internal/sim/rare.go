package sim

import (
	"context"

	"repro/internal/noise"
)

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

// RareStratum is one realized-fault-count stratum of a rare-event run.
type RareStratum struct {
	// W is the realized fault count of the stratum; the top stratum
	// (W = 63) also absorbs any higher counts.
	W int

	// Shots and Fails are the conditional shots that realized W faults and
	// how many of them failed.
	Shots int
	Fails int

	// Weight is the stratum's conditional probability P(K = W | K >= 1)
	// under the skeleton binomial model (0 when W exceeds the fault-free
	// location count: those shots grew extra locations in correction
	// blocks).
	Weight float64
}

// RareEventResult reports a rare-event (>= 1-fault conditional) estimate:
// the AdaptiveResult fields carry the pooled exact estimate
// PL = CondP·Fails/Shots with its scaled Wilson interval, and the strata
// break the same shots down by realized fault count, the
// FaultOrder-compatible view (see ToFaultOrder).
type RareEventResult struct {
	AdaptiveResult

	// N is the number of fault locations on the fault-free path.
	N int

	// Q is the conditional failure proportion Fails/Shots, i.e.
	// P(logical error | >= 1 fault); PL = CondP·Q.
	Q float64

	// Strata holds the realized-fault-count strata that received at least
	// one shot, in increasing W order.
	Strata []RareStratum

	classCounts [3]int // N by location class, for ToFaultOrder
}

// ToFaultOrder converts the stratified view into a FaultOrderResult: F[w]
// is the sampled conditional failure probability given w realized faults
// (F[0] = 0 exactly — a fault-free shot follows the deterministic
// fault-free path and cannot fail), up to the highest stratum that
// received shots, with the run's per-class location counts. RateModel then
// recombines the strata under the location weights of any noise model,
// which reproduces the pooled PL up to post-stratification noise and lets
// rare-event runs feed every consumer of the subset-sampling estimator.
func (r RareEventResult) ToFaultOrder() FaultOrderResult {
	maxW := 0
	for _, s := range r.Strata {
		if s.W > maxW {
			maxW = s.W
		}
	}
	f := make([]float64, maxW+1)
	for _, s := range r.Strata {
		if s.Shots > 0 {
			f[s.W] = float64(s.Fails) / float64(s.Shots)
		}
	}
	return FaultOrderResult{N: r.N, F: f, ClassCounts: r.classCounts}
}

// RareEventAdaptiveModel estimates the logical error rate under the noise
// model m by >= 1-fault conditional sampling: every shot is drawn from the
// exact conditional fault distribution (see noise.NewCondSamplerModel), so
// no sampling effort is spent on the fault-free shots that dominate direct
// Monte-Carlo at low rates, and the conditional failure proportion q is
// reweighted by the exact conditioning probability
// CondP = 1-∏_c(1-p_c)^(n_c) — 1-(1-p)^N for noise.Uniform(p) — to the
// unconditional PL = CondP·q. It is AdaptiveModel with MethodRare, so the
// stopping rule, block scheduling, worker-count determinism and argument
// contract are AdaptiveModel's (targetRSE applies to PL, whose relative
// error equals that of q since CondP is an exact constant); the model must
// have every class rate below 1 and fire at least one fault on the protocol
// (ErrBadRate).
//
// Alongside the pooled estimate the result bins shots by realized fault
// count, yielding FaultOrder-compatible strata weighted by CondWeightsModel,
// plus the Kish effective sample size and weight variance of those
// post-stratification weights.
func (est *Estimator) RareEventAdaptiveModel(ctx context.Context, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (RareEventResult, error) {
	ar, pooled, err := est.adaptive(ctx, MethodRare, m, targetRSE, maxShots, seed, workers)
	if err != nil {
		return RareEventResult{}, err
	}
	counts := est.ClassCounts()
	res := RareEventResult{
		AdaptiveResult: ar,
		N:              counts[0] + counts[1] + counts[2],
		Q:              float64(ar.Fails) / float64(ar.Shots),
		classCounts:    counts,
	}
	weights := CondWeightsModel(counts, rareMaxW, m)
	for _, s := range pooled.Strata {
		res.Strata = append(res.Strata, RareStratum{
			W: s.W, Shots: int(s.Shots), Fails: int(s.Fails), Weight: weights[s.W],
		})
	}
	return res, nil
}
