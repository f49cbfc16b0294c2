// Noise sweep: reproduce one series of the paper's Fig. 4 with both the
// stratified fault-order estimator and direct Monte-Carlo, demonstrating
// their agreement and the quadratic (fault-tolerant) scaling.
//
//	go run ./examples/noise_sweep [-code Carbon]
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
	name := flag.String("code", "Steane", "catalog code to sweep")
	flag.Parse()

	cs, err := code.ByName(*name)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	proto, err := core.Build(ctx, cs, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	est := sim.NewEstimator(proto)
	res, err := est.FaultOrderModel(ctx, 3, 30000, rand.New(rand.NewSource(2024)), noise.Uniform(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: N=%d locations, f1=%g, f2=%.4f, f3=%.4f\n",
		cs.Name, res.N, res.F[1], res.F[2], res.F[3])
	fmt.Printf("%-10s %-12s %-12s %-10s\n", "p", "pL(strat)", "pL(MC)", "pL/p^2")
	for _, p := range []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1} {
		strat := res.RateModel(noise.Uniform(p))
		mc := "-"
		if p >= 1e-2 {
			v, err := est.AdaptiveModel(ctx, sim.MethodDirect, noise.Uniform(p), 0, 40000, 2024, 0)
			if err != nil {
				log.Fatal(err)
			}
			mc = fmt.Sprintf("%.3g", v.PL)
		}
		fmt.Printf("%-10.1e %-12.3g %-12s %-10.3g\n", p, strat, mc, strat/(p*p))
	}
	fmt.Println("\nthe constant pL/p² column at small p is the numerical")
	fmt.Println("fault-tolerance statement of the paper (logical errors need")
	fmt.Println("two independent faults).")
}
