// Command fig4 regenerates Figure 4 of the paper: logical error rate versus
// physical error rate for the |0>_L preparation protocols of every catalog
// code, under circuit-level depolarizing noise (E1_1), with a perfect final
// error-correction round and destructive Z-basis readout. It is a thin flag
// wrapper over the public dftsp package.
//
// Output is CSV: series,p,pL. The "Linear" series is the pL = p reference
// line of the figure. The estimate flags are those of an /estimate body:
// -mc-shots adds Monte-Carlo cross-check rows with a fixed budget, and
// -target-rse samples each of those points adaptively until the requested
// relative standard error (capped by -max-shots). The sampling method
// follows -method: the default "auto" switches per rate between direct
// sampling and the rare-event conditional estimator, which extends adaptive
// sweeps far below the direct-sampling floor — with -pmin 1e-5 the full
// curve resolves in seconds; "direct" restores the old behaviour of
// sampling only at p >= 1e-2. -rates replaces the -pmin/-pmax/-points grid.
// Unknown codes and bad estimate flags are refused before any synthesis,
// and the command exits 1 when any code fails.
//
// The noise model generalizes beyond the paper's uniform E1_1 via -bias-2q
// and -bias-meas (per-class rate multipliers relative to the one-qubit
// rate) and the two-qubit Z-bias -eta. -bias switches the command into the
// protocol-ranking-under-bias mode: instead of the p sweep it evaluates
// every code at one physical rate (-bias-rate) across a comma-separated
// list of eta values, cross-checks the rare-event conditional estimate
// against direct Monte-Carlo at each point, and emits the ranking artifact
// CSV eta,code,p,pl,pl_rare,pl_direct,sigma,rank — rank 1 is the best
// (lowest pl_rare) protocol at that eta, and sigma is the two-estimator
// discrepancy in standard deviations. The run exits 1 when any sigma
// exceeds maxSigma (5).
//
// Usage:
//
//	fig4 > fig4.csv
//	fig4 -codes Steane,Carbon -samples 50000 -mc-shots 20000
//	fig4 -codes Steane -target-rse 0.05
//	fig4 -codes Steane -target-rse 0.1 -pmin 1e-5   # rare-event regime
//	fig4 -bias 1,4,16 -bias-rate 1e-3 > ranking.csv # ranking under Z bias
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/dftsp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// cli is what the command line selects.
type cli struct {
	est        dftsp.EstimateOptions
	codes      string
	points     int
	pMin, pMax float64
	etas       []float64
	biasRate   float64
}

// newFlags returns the command's flag set, bound to c.
func newFlags(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	// Codes already run concurrently; keep each MC serial.
	c.est = dftsp.EstimateOptions{MaxOrder: 3, Samples: 20000, Seed: 1, Workers: 1, Bias2Q: 1, BiasMeas: 1, Eta: 1}
	fs.StringVar(&c.codes, "codes", "", "comma-separated code names (empty: all)")
	fs.IntVar(&c.points, "points", 13, "grid points per decade span")
	fs.Float64Var(&c.pMin, "pmin", 1e-4, "lowest physical rate of the sweep")
	fs.Float64Var(&c.pMax, "pmax", 1e-1, "highest physical rate of the sweep")
	fs.Func("bias", "comma-separated `etas`: emit the protocol-ranking-under-bias artifact instead of the p sweep (overrides -eta)", func(s string) error {
		c.etas = nil
		if s == "" {
			return nil // an empty list keeps the p sweep
		}
		for _, f := range strings.Split(s, ",") {
			eta, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return err
			}
			c.etas = append(c.etas, eta)
		}
		return nil
	})
	fs.Float64Var(&c.biasRate, "bias-rate", 1e-3, "physical rate of the -bias ranking sweep")
	c.est.RegisterFlags(fs)
	fs.Var(fs.Lookup("max-order").Value, "maxw", "alias of -max-order")
	fs.Var(fs.Lookup("mc-shots").Value, "mcshots", "alias of -mc-shots")
	fs.Var(fs.Lookup("bias-2q").Value, "bias2q", "alias of -bias-2q")
	fs.Var(fs.Lookup("bias-meas").Value, "biasmeas", "alias of -bias-meas")
	return fs
}

// run is main without the process-global parts, so tests can drive the CLI
// end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var c cli
	fs := newFlags(&c)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	codes, err := dftsp.Codes(c.codes)
	if err != nil {
		fmt.Fprintln(stderr, "fig4:", err)
		return 1
	}
	if c.etas != nil {
		err = runBias(ctx, codes, c.etas, c.biasRate, c.est, stdout, stderr)
	} else {
		err = runSweep(ctx, codes, c, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fig4:", err)
		return 1
	}
	return 0
}

// runSweep prints the Fig. 4 curves of every code, and fails when any code
// does, after printing the others.
func runSweep(ctx context.Context, codes []dftsp.CodeDescriptor, c cli, stdout, stderr io.Writer) error {
	eo := c.est
	if len(eo.Rates) == 0 {
		grid, err := dftsp.LogGrid(c.pMin, c.pMax, c.points)
		if err != nil {
			return err
		}
		eo.Rates = grid
	}
	// Direct sampling resolves nothing below this physical rate, so confine
	// it to the top of the sweep; auto and rare sample every grid point.
	if eo.Method == "direct" && eo.MCMinRate == 0 {
		eo.MCMinRate = 1e-2
	}
	if err := eo.Validate(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "series,p,pL")
	for _, p := range eo.Rates {
		fmt.Fprintf(stdout, "Linear,%.6g,%.6g\n", p, p)
	}

	type curve struct {
		diag  string
		lines []string
	}
	curves, errs := eachCode(ctx, codes, func(i int, proto *dftsp.Protocol) (curve, error) {
		var c curve
		if err := proto.Certify(); err != nil {
			return c, fmt.Errorf("failed the FT certificate: %v", err)
		}
		opts := eo
		opts.Seed += int64(i)
		res, err := proto.Estimate(ctx, opts)
		if err != nil {
			return c, err
		}
		name := codes[i].Name
		series := csvName(name)
		c.diag = fmt.Sprintf("fig4: %-12s N=%3d f1=%g f2=%.4f", name, res.Locations, res.F[1], res.F[2])
		for _, pt := range res.Points {
			c.lines = append(c.lines, fmt.Sprintf("%s,%.6g,%.6g", series, pt.P, pt.PL))
		}
		for _, pt := range res.Points {
			if pt.Shots > 0 {
				c.lines = append(c.lines, fmt.Sprintf("%s-MC,%.6g,%.6g", series, pt.P, pt.MC))
			}
		}
		return c, nil
	})
	failed := 0
	for i, c := range curves {
		if errs[i] != nil {
			fmt.Fprintln(stderr, "fig4:", errs[i])
			failed++
			continue
		}
		fmt.Fprintln(stderr, c.diag)
		for _, line := range c.lines {
			fmt.Fprintln(stdout, line)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d codes failed", failed, len(codes))
	}
	return nil
}

// eachCode synthesizes every code on a goroutine of its own — synthesis
// and sampling are independent, so the sweep parallelizes perfectly — and
// returns what fn makes of each protocol, in the order of codes.
func eachCode[T any](ctx context.Context, codes []dftsp.CodeDescriptor, fn func(i int, proto *dftsp.Protocol) (T, error)) ([]T, []error) {
	out, errs := make([]T, len(codes)), make([]error, len(codes))
	var wg sync.WaitGroup
	for i, cd := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			proto, err := dftsp.Synthesize(ctx, dftsp.Options{Code: cd.Name})
			if err == nil {
				out[i], err = fn(i, proto)
			}
			if err != nil {
				errs[i] = fmt.Errorf("%s: %v", cd.Name, err)
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// maxSigma is the acceptance bound of the ranking sweep: a rare-event
// estimate further than this many standard deviations from its direct
// cross-check fails the run.
const maxSigma = 5

// biasPoint is one (code, eta) evaluation of the ranking sweep.
type biasPoint struct {
	code                   string
	eta                    float64
	pl, plRare, plDirect   float64
	sigma                  float64 // rare-vs-direct discrepancy in std devs; NaN when either saw no failures
	shotsRare, shotsDirect int
}

// runBias evaluates every code at one physical rate across the eta list,
// cross-checking the rare-event estimate against direct Monte-Carlo, and
// prints the ranking artifact CSV (rank 1 = lowest pl_rare at that eta).
// est carries the estimate flags; the sweep sets its rate, eta, method and
// budgets. It fails when any point's sigma exceeds maxSigma.
func runBias(ctx context.Context, codes []dftsp.CodeDescriptor, etas []float64, rate float64, est dftsp.EstimateOptions, stdout, stderr io.Writer) error {
	base := est
	base.Rates, base.MCMinRate = []float64{rate}, rate
	for _, eta := range etas {
		base.Eta = eta
		if err := base.Validate(); err != nil {
			return err
		}
	}
	// The rare estimator needs enough precision that the 5-sigma band is
	// meaningful; the direct cross-check needs enough shots to observe
	// failures at all. The defaults keep a full catalog sweep under a
	// minute while typically landing both estimates within a few percent.
	if base.TargetRSE <= 0 {
		base.TargetRSE = 0.05
	}
	if base.MCShots <= 0 {
		base.MCShots = 1_000_000
	}

	perCode, errs := eachCode(ctx, codes, func(i int, proto *dftsp.Protocol) ([]biasPoint, error) {
		var points []biasPoint // one per eta, in eta order
		for _, eta := range etas {
			rare := base
			rare.Eta, rare.Seed = eta, base.Seed+int64(i)
			direct := rare
			rare.Method, rare.MCShots = "rare", 0
			direct.Method, direct.TargetRSE, direct.MaxShots = "direct", 0, 0
			resR, err := proto.Estimate(ctx, rare)
			if err != nil {
				return nil, fmt.Errorf("eta=%g rare: %v", eta, err)
			}
			resD, err := proto.Estimate(ctx, direct)
			if err != nil {
				return nil, fmt.Errorf("eta=%g direct: %v", eta, err)
			}
			ptR, ptD := resR.Points[0], resD.Points[0]
			// Standard errors from the reported relative standard errors; a
			// point with zero observed failures has RSE 0 and yields sigma
			// NaN (no discrepancy measurable).
			seR, seD := ptR.MC*ptR.RSE, ptD.MC*ptD.RSE
			sigma := math.NaN()
			if seR > 0 && seD > 0 {
				sigma = math.Abs(ptR.MC-ptD.MC) / math.Hypot(seR, seD)
			}
			points = append(points, biasPoint{
				code: codes[i].Name, eta: eta, pl: ptR.PL, plRare: ptR.MC, plDirect: ptD.MC,
				sigma: sigma, shotsRare: ptR.Shots, shotsDirect: ptD.Shots,
			})
		}
		return points, nil
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "eta,code,p,pl,pl_rare,pl_direct,sigma,rank")
	var all []biasPoint
	for e, eta := range etas {
		row := make([]biasPoint, len(codes))
		for i := range codes {
			row[i] = perCode[i][e]
		}
		all = append(all, row...)
		// Rank by the rare-event estimate, the measurement the artifact
		// exists to order protocols by; ties keep catalog order.
		order := make([]int, len(row))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return row[order[a]].plRare < row[order[b]].plRare })
		rank := make([]int, len(row))
		for pos, i := range order {
			rank[i] = pos + 1
		}
		for i, pt := range row {
			fmt.Fprintf(stdout, "%g,%s,%.6g,%.6g,%.6g,%.6g,%.3g,%d\n",
				eta, csvName(pt.code), rate, pt.pl, pt.plRare, pt.plDirect, pt.sigma, rank[i])
			fmt.Fprintf(stderr, "fig4: eta=%-6g %-12s pl_rare=%.3g (%d shots) pl_direct=%.3g (%d shots) sigma=%.2f\n",
				eta, pt.code, pt.plRare, pt.shotsRare, pt.plDirect, pt.shotsDirect, pt.sigma)
		}
	}
	return checkSigma(all)
}

// checkSigma fails when the rare and direct estimates of any point disagree
// by more than maxSigma standard deviations. A NaN sigma (no failures seen
// on one side) measures no discrepancy and passes.
func checkSigma(points []biasPoint) error {
	var bad []string
	for _, pt := range points {
		if pt.sigma > maxSigma {
			bad = append(bad, fmt.Sprintf("%s eta=%g (%.2f sigma)", pt.code, pt.eta, pt.sigma))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("rare and direct estimates disagree by more than %d sigma at %s", maxSigma, strings.Join(bad, ", "))
	}
	return nil
}

// csvName makes a code name safe as an unquoted CSV field.
func csvName(name string) string {
	return strings.ReplaceAll(name, ",", ".")
}
