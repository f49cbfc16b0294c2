// Command table1 regenerates Table I of the paper: circuit metrics of the
// synthesized deterministic fault-tolerant state preparation protocols for
// |0>_L of every catalog code, across preparation (Heu/Opt) and
// verification (Opt/Global) synthesis methods. It is a thin flag wrapper
// over the public dftsp package. A row whose synthesis fails prints as
// ERROR, the other rows still print, and the command exits 1.
//
// Usage:
//
//	table1                 # all codes, Heu prep, Opt verification
//	table1 -all            # additionally Opt prep and Global rows (slower)
//	table1 -codes Steane,Shor
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/dftsp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// cli is what the command line selects.
type cli struct {
	codes      string
	all, check bool
}

// newFlags returns the command's flag set, bound to c.
func newFlags(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.StringVar(&c.codes, "codes", "", "comma-separated code names (empty: all)")
	fs.BoolVar(&c.all, "all", false, "run every prep/verification method combination")
	fs.BoolVar(&c.check, "check", false, "print build time per row")
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
		fmt.Fprintln(stderr, "table1:", err)
		return 1
	}

	type method struct {
		prep  string
		verif string
		maxN  int // largest code the method is attempted on
	}
	methods := []method{{dftsp.PrepHeuristic, dftsp.VerifOptimal, 1 << 30}}
	if c.all {
		// Mirror the paper: exact preparation synthesis and global
		// optimization are only run where tractable.
		methods = append(methods,
			method{dftsp.PrepHeuristic, dftsp.VerifGlobal, 12},
			method{dftsp.PrepOptimal, dftsp.VerifOptimal, 9},
			method{dftsp.PrepOptimal, dftsp.VerifGlobal, 9},
		)
	}

	fmt.Fprintln(stdout, "Table I — deterministic FT state preparation circuit metrics for |0>_L")
	fmt.Fprintln(stdout, "(per layer: am/af = verification/flag ancillas, wm/wf = their CNOTs;")
	fmt.Fprintln(stdout, " corr lists ancillas/CNOTs per branch, 'f' marks flag branches)")
	fmt.Fprintln(stdout)
	failed := 0
	for _, cd := range codes {
		for _, m := range methods {
			if cd.N > m.maxN {
				continue
			}
			t0 := time.Now()
			p, err := dftsp.Synthesize(ctx, dftsp.Options{Code: cd.Name, Prep: m.prep, Verif: m.verif})
			if err != nil {
				fmt.Fprintf(stdout, "%-12s %s/%s: ERROR: %v\n", cd.Name, m.prep, m.verif, err)
				failed++
				continue
			}
			fmt.Fprintf(stdout, "%-4s/%-6s %s", title(m.prep), title(m.verif), p.MetricsRow())
			if c.check {
				fmt.Fprintf(stdout, "  [%.1fs]", time.Since(t0).Seconds())
			}
			fmt.Fprintln(stdout)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "table1: %d rows failed\n", failed)
		return 1
	}
	return 0
}

// title capitalizes a method name for display ("heu" -> "Heu").
func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
