// Deterministic vs repeat-until-success: quantifies what the paper's
// protocol buys. The non-deterministic baseline restarts whenever a
// verification fires — stochastic latency that breaks synchronization in
// experiments — while the deterministic protocol corrects and always
// finishes in one pass at the same O(p²) logical error rate.
//
//	go run ./examples/det_vs_rus [-code Steane] [-p 0.01]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
)

func main() {
	name := flag.String("code", "Steane", "catalog code")
	pp := flag.Float64("p", 0.01, "physical error rate")
	shots := flag.Int("shots", 40000, "samples per scheme")
	flag.Parse()

	cs, err := code.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	proto, err := core.Build(context.Background(), cs, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	est := sim.NewEstimator(proto)
	model := noise.Uniform(*pp)

	det, err := est.AdaptiveModel(context.Background(), sim.MethodDirect, model, 0, *shots, 99, 0)
	if err != nil {
		log.Fatal(err)
	}
	rus, err := est.NonDeterministicStats(model, *shots, 200, rand.New(rand.NewSource(99)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s at p = %g (%d shots per scheme)\n\n", cs, *pp, *shots)
	fmt.Printf("%-28s %-14s %-14s\n", "", "deterministic", "repeat-until-success")
	fmt.Printf("%-28s %-14s %-14.3f\n", "mean preparation rounds", "1 (always)", rus.MeanAttempts)
	fmt.Printf("%-28s %-14s %-14.3f\n", "acceptance rate per round", "1 (always)", rus.AcceptRate)
	fmt.Printf("%-28s %-14.4g %-14.4g\n", "logical error rate", det.PL, rus.LogicalRate)
	fmt.Println("\nthe deterministic protocol trades the baseline's stochastic")
	fmt.Println("restart overhead for a few conditional measurements, keeping")
	fmt.Println("the same quadratic error suppression (paper, Section III.B).")
}
