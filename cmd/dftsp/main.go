// Command dftsp synthesizes a deterministic fault-tolerant state preparation
// protocol for |0>_L of a CSS code, prints its structure and Table-I-style
// metrics, optionally certifies fault tolerance exhaustively and exports the
// static part of the circuit as OpenQASM 2.0. It is a thin flag wrapper over
// the public dftsp package.
//
// Usage:
//
//	dftsp -code Steane
//	dftsp -code Carbon -prep opt -verif global -check
//	dftsp -code Surface -qasm surface.qasm
//	dftsp -hx 1110000,0111000 -hz ...   # custom code from check matrices
//	dftsp -code Steane -rate 1e-3 -shots 100000 -workers 8
//	dftsp -code Steane -rate 1e-2 -target-rse 0.05   # adaptive shot count
//	dftsp -code Steane -rate 1e-5 -target-rse 0.1    # auto → rare-event
//	dftsp -code Steane -rate 1e-2 -target-rse 0.02 -cpuprofile rate.pprof
//
// The estimate flags are those of an /estimate body (-rates, -mc-shots,
// -target-rse, -method, -bias-2q, ...); with -rates set, the command
// estimates the logical error rate at each rate, sampling every one of them
// unless -mc-min-rate says otherwise. Sampling runs on the 64-lane batch
// engine; a protocol past its packing limits is refused with an error
// naming the limit. -method selects the sampling method (auto/direct/rare;
// auto switches to the rare-event conditional estimator below the
// crossover rate, which makes tiny physical rates tractable). -bias-2q,
// -bias-meas and -eta generalize the noise model to per-class rates and a
// Z-biased two-qubit operator menu; all default to 1, the paper's uniform
// model. Bad estimate flags are refused before synthesis. -cpuprofile
// writes a pprof CPU profile covering the whole run — synthesis and
// sampling — for perf hunts on the estimation hot path.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"repro/dftsp"
)

func main() {
	// Ctrl-C aborts the SAT solver mid-synthesis instead of being ignored
	// until the next process-level preemption point.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// cli is what the command line selects.
type cli struct {
	opts          dftsp.Options
	est           dftsp.EstimateOptions
	check         bool
	qasm, cpuProf string
}

// newFlags returns the command's flag set, bound to c.
func newFlags(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("dftsp", flag.ContinueOnError)
	c.opts = dftsp.Options{Prep: dftsp.PrepHeuristic, Verif: dftsp.VerifOptimal}
	c.est = dftsp.EstimateOptions{Bias2Q: 1, BiasMeas: 1, Eta: 1}
	fs.StringVar(&c.opts.Code, "code", "", "catalog code name (empty: Steane)")
	fs.IntVar(&c.opts.SurfaceDistance, "surface", 0, "use the rotated surface code of this (odd) distance instead of -code")
	fs.Func("hx", "custom X check matrix (comma-separated bit `rows`)", func(s string) error { c.opts.Hx = strings.Split(s, ","); return nil })
	fs.Func("hz", "custom Z check matrix (comma-separated bit `rows`)", func(s string) error { c.opts.Hz = strings.Split(s, ","); return nil })
	fs.BoolVar(&c.check, "check", false, "run the exhaustive single-fault FT certificate")
	fs.StringVar(&c.qasm, "qasm", "", "write prep+verification as OpenQASM 2.0 to this file")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	c.opts.RegisterFlags(fs)
	c.est.RegisterFlags(fs)
	fs.Lookup("rates").Usage = "comma-separated `list` of physical error rates; if set, estimate the logical error rate at each"
	fs.Var(fs.Lookup("rates").Value, "rate", "alias of -rates")
	fs.Var(fs.Lookup("mc-shots").Value, "shots", "alias of -mc-shots")
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
	estimate := len(c.est.Rates) > 0
	if estimate {
		// The user named these rates, so no mc_min_rate floor skips one.
		if c.est.MCMinRate == 0 {
			c.est.MCMinRate = slices.Min(c.est.Rates)
		}
		if err := c.est.Validate(); err != nil {
			return fail(stderr, err)
		}
	}

	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}

	p, err := dftsp.Synthesize(ctx, c.opts)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, p.Summary())
	fmt.Fprintln(stdout, p.MetricsRow())
	fmt.Fprintln(stdout, p.Describe())

	if c.check {
		if err := p.Certify(); err != nil {
			return fail(stderr, fmt.Errorf("FT check FAILED: %w", err))
		}
		fmt.Fprintf(stdout, "FT certificate: all single faults at %d locations leave residual weight <= 1\n", p.FaultLocations())
	}

	if estimate {
		res, err := p.Estimate(ctx, c.est)
		if err != nil {
			return fail(stderr, err)
		}
		for _, pt := range res.Points {
			fmt.Fprintf(stdout, "logical error rate at p=%g: %.3g (N=%d locations, f2=%.4f)\n",
				pt.P, pt.PL, res.Locations, res.F[2])
			if pt.Shots > 0 {
				fmt.Fprintf(stdout, "Monte-Carlo cross-check at p=%g: %.3g (%s, %d shots, rse=%.3g, 95%% CI [%.3g, %.3g])\n",
					pt.P, pt.MC, pt.Method, pt.Shots, pt.RSE, pt.CILo, pt.CIHi)
			}
		}
	}

	if c.qasm != "" {
		f, err := os.Create(c.qasm)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		if err := p.WriteQASM(f); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintln(stdout, "wrote", c.qasm)
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	// Facade errors already carry the "dftsp:" prefix; don't double it.
	fmt.Fprintln(stderr, "dftsp:", strings.TrimPrefix(err.Error(), "dftsp: "))
	return 1
}
