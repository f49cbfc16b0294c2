package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/noise"
)

// NonDetResult summarizes a repeat-until-success (non-deterministic)
// preparation: the paper's baseline scheme, in which a triggered
// verification discards the state and restarts instead of correcting.
type NonDetResult struct {
	Out      Outcome
	Attempts int  // preparation rounds executed
	GaveUp   bool // maxAttempts exhausted without acceptance
}

// RunNonDeterministic executes the repeat-until-success baseline: the
// preparation and verification of p run under fresh noise each round, and
// any verification or flag signal restarts the protocol (corrections are
// never applied). The accepted state's residual frame is returned along
// with the number of attempts — the stochastic overhead the deterministic
// scheme eliminates.
func RunNonDeterministic(p *core.Protocol, mkInj func() noise.Injector, maxAttempts int) NonDetResult {
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		out := Run(p, mkInj())
		if !out.Triggered {
			return NonDetResult{Out: out, Attempts: attempt}
		}
	}
	return NonDetResult{Attempts: maxAttempts, GaveUp: true}
}

// NonDetStats estimates the acceptance behaviour and post-selected logical
// error rate of the baseline under a noise model.
type NonDetStats struct {
	AcceptRate   float64 // fraction of rounds passing verification
	MeanAttempts float64 // average rounds until acceptance
	LogicalRate  float64 // logical error rate of accepted states
}

// NonDeterministicStats samples the baseline scheme under the noise model m
// (noise.Uniform(p) for the paper's model) on the interpreted executor,
// drawing every round from rng, and judges each accepted state with the
// batch engine's decoder (Judge). Shots counts accepted preparations; each
// uses up to maxAttempts rounds. Both must be positive (ErrBadShots), and
// the protocol must have compiled (ErrNotCompiled).
func (est *Estimator) NonDeterministicStats(m noise.Model, shots, maxAttempts int, rng *rand.Rand) (NonDetStats, error) {
	if err := est.compiled(); err != nil {
		return NonDetStats{}, err
	}
	if shots <= 0 || maxAttempts <= 0 {
		return NonDetStats{}, fmt.Errorf("%w: %d shots of up to %d attempts", ErrBadShots, shots, maxAttempts)
	}
	rounds, accepted, fails := 0, 0, 0
	attemptsTotal := 0
	inj := noise.NewDepolarizing(m, rng) // stateless beyond rng: every round may share it
	for s := 0; s < shots; s++ {
		res := RunNonDeterministic(est.P, func() noise.Injector { return inj }, maxAttempts)
		rounds += res.Attempts
		if res.GaveUp {
			continue
		}
		accepted++
		attemptsTotal += res.Attempts
		if est.Judge(res.Out) {
			fails++
		}
	}
	st := NonDetStats{}
	if rounds > 0 {
		st.AcceptRate = float64(accepted) / float64(rounds)
	}
	if accepted > 0 {
		st.MeanAttempts = float64(attemptsTotal) / float64(accepted)
		st.LogicalRate = float64(fails) / float64(accepted)
	}
	return st, nil
}
