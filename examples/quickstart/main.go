// Quickstart: synthesize a deterministic fault-tolerant preparation protocol
// for the Steane code's |0>_L, certify its fault tolerance exhaustively, and
// estimate its logical error rate.
//
//	go run ./examples/quickstart
package main

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

func main() {
	// 1. Pick a code from the catalog (or build your own with code.New).
	steane := code.Steane()
	fmt.Println("code:", steane) // Steane [[7,1,3]]

	// 2. Synthesize the full deterministic protocol of the paper: non-FT
	//    preparation, SAT-optimal verification, SAT-optimal corrections.
	ctx := context.Background()
	proto, err := core.Build(ctx, steane, core.Config{
		Prep:  core.PrepOptimal,  // minimum-CNOT encoder (8 CNOTs)
		Verif: core.VerifOptimal, // minimal verification, then corrections
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("protocol:", proto)
	fmt.Println("metrics:", proto.ComputeMetrics().FormatRow())

	// 3. Certify strict fault tolerance (Definition 1, t=1): every single
	//    fault anywhere must leave a residual of reduced weight <= 1.
	if err := sim.ExhaustiveFaultCheck(proto); err != nil {
		log.Fatal("not fault-tolerant: ", err)
	}
	fmt.Printf("FT certificate passed over %d fault locations\n", sim.Locations(proto))

	// 4. Estimate the logical error rate curve (Fig. 4 of the paper).
	est := sim.NewEstimator(proto)
	res, err := est.FaultOrderModel(ctx, 3, 20000, rand.New(rand.NewSource(1)), noise.Uniform(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conditional failure rates: f1=%g (FT!), f2=%.3f, f3=%.3f\n",
		res.F[1], res.F[2], res.F[3])
	for _, p := range []float64{1e-4, 1e-3, 1e-2} {
		fmt.Printf("p=%.0e  ->  pL=%.3g\n", p, res.RateModel(noise.Uniform(p)))
	}
}
