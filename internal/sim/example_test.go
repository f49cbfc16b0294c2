package sim_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
)

// ExampleEstimator certifies a Steane protocol and evaluates its exact
// single-fault failure probability: for a fault-tolerant protocol the
// exhaustively enumerated order-1 stratum must be zero.
func ExampleEstimator() {
	proto, err := core.Build(context.Background(), code.Steane(), core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.ExhaustiveFaultCheck(proto); err != nil {
		log.Fatal("not fault-tolerant: ", err)
	}

	est := sim.NewEstimator(proto)
	res, err := est.FaultOrderModel(context.Background(), 1, 0, rand.New(rand.NewSource(1)), noise.Uniform(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault locations: %d\n", res.N)
	fmt.Printf("P(logical error | 1 fault) = %g\n", res.F[1])
	// Output:
	// fault locations: 21
	// P(logical error | 1 fault) = 0
}

// ExampleEstimator_AdaptiveModel samples the Steane protocol's logical
// error rate by direct Monte-Carlo under the paper's uniform noise model
// until the estimate reaches a 20% relative standard error, instead of
// guessing a shot budget up front.
func ExampleEstimator_AdaptiveModel() {
	proto, err := core.Build(context.Background(), code.Steane(), core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	est := sim.NewEstimator(proto)

	const targetRSE, maxShots = 0.2, 1_000_000
	res, err := est.AdaptiveModel(context.Background(), sim.MethodDirect, noise.Uniform(0.05), targetRSE, maxShots, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target met: %v\n", res.RSE > 0 && res.RSE <= targetRSE)
	fmt.Printf("stopped before the cap: %v\n", res.Shots < maxShots)
	fmt.Printf("interval brackets the estimate: %v\n", res.CILo <= res.PL && res.PL <= res.CIHi)
	// Output:
	// target met: true
	// stopped before the cap: true
	// interval brackets the estimate: true
}
