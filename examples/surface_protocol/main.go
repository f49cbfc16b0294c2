// Surface-code walkthrough: build the rotated distance-3 surface code from
// its lattice, inspect the synthesized verification and correction circuits,
// and compare the deterministic protocol against the bare (non-FT) encoder.
//
//	go run ./examples/surface_protocol
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/prep"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/verify"
)

func main() {
	cs := code.RotatedSurface(3)
	fmt.Printf("%s: dX=%d dZ=%d\n", cs, cs.DistanceX(), cs.DistanceZ())

	// The bare encoder is not fault-tolerant: single faults spread.
	bare := prep.Heuristic(cs)
	dangerous := verify.DangerousErrors(cs, bare, code.ErrX)
	fmt.Printf("bare encoder: %d CNOTs, %d dangerous X errors\n",
		bare.CNOTCount(), len(dangerous))
	for _, e := range dangerous {
		fmt.Printf("  e.g. X%v with wt_S = %d\n", e.Support(), cs.ReducedWeight(code.ErrX, e))
	}

	// Synthesize the deterministic FT protocol.
	ctx := context.Background()
	proto, err := core.Build(ctx, cs, core.Config{Verif: core.VerifGlobal})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("protocol:", proto)

	if err := sim.ExhaustiveFaultCheck(proto); err != nil {
		log.Fatal(err)
	}
	fmt.Println("FT certificate passed")

	// Quantify the gain: conditional failure given one fault, bare vs
	// protected (the protocol must reach exactly zero).
	est := sim.NewEstimator(proto)
	res, err := est.FaultOrderModel(ctx, 2, 20000, rand.New(rand.NewSource(7)), noise.Uniform(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deterministic protocol: f1 = %g, f2 = %.3f, N = %d\n",
		res.F[1], res.F[2], res.N)

	// Export the static circuit for external tools.
	if err := qasm.Export(os.Stdout, proto.FlatCircuit(), "surface-3 |0>_L FT preparation"); err != nil {
		log.Fatal(err)
	}
}
