package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/docs"
)

func runCLI(t *testing.T, ctx context.Context, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(ctx, args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// parentFlags lists the command's flags with their defaults from before its
// estimate flags were bound by dftsp's RegisterFlags: each keeps its name
// and default.
var parentFlags = map[string]string{
	"codes": "", "samples": "20000", "maxw": "3", "points": "13", "mcshots": "0",
	"target-rse": "0", "max-shots": "0", "method": "", "pmin": "0.0001",
	"pmax": "0.1", "seed": "1", "bias2q": "1", "biasmeas": "1", "bias": "",
	"bias-rate": "0.001",
}

func TestParentFlagsKept(t *testing.T) {
	fs := newFlags(&cli{})
	for name, want := range parentFlags {
		if f := fs.Lookup(name); f == nil {
			t.Errorf("-%s is gone", name)
		} else if f.DefValue != want {
			t.Errorf("-%s default %q, want %q", name, f.DefValue, want)
		}
	}
}

func TestDocumentedInvocationsParse(t *testing.T) {
	docs.ParseInvocations(t, "../..", "fig4", func(args []string) error {
		fs := newFlags(&cli{})
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("arguments left over: %q", fs.Args())
		}
		return nil
	})
}

// TestRefusedBeforeSynthesis checks that unknown codes and bad estimate
// flags fail the run before it prints a row.
func TestRefusedBeforeSynthesis(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-codes", "Steane", "-points", "2", "-method", "bogus"}, `method "bogus"`},
		{[]string{"-codes", "Steane", "-rates", "0.5", "-bias-2q", "2"}, "reaches 1"},
		{[]string{"-codes", "Steane,NoSuchCode", "-points", "2"}, "available"},
		{[]string{"-codes", "Steane", "-bias", "1,4", "-method", "bogus"}, `method "bogus"`},
		{[]string{"-codes", "Steane", "-bias", "1", "-bias-rate", "2"}, "outside (0,1)"},
	} {
		code, stdout, stderr := runCLI(t, ctx, tc.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("fig4 %s: exit %d, stdout %q, stderr %q; want 1 with %q and no rows",
				strings.Join(tc.args, " "), code, stdout, stderr, tc.want)
		}
	}
}

// TestFailedCodeFailsRun cancels the run, so synthesis fails for every
// code: the sweep must say so in its exit status, not only on stderr.
func TestFailedCodeFailsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, stderr := runCLI(t, ctx, "-codes", "Steane", "-points", "2")
	if code != 1 || !strings.Contains(stderr, "1 of 1 codes failed") {
		t.Fatalf("exit %d, stderr %q; want 1 reporting the failed code", code, stderr)
	}
}

func TestSweepAcceptsRelaxedNames(t *testing.T) {
	code, stdout, stderr := runCLI(t, context.Background(), "-codes", "steane", "-points", "2", "-samples", "200")
	if code != 0 || !strings.Contains(stdout, "\nSteane,0.0001,") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}

func TestCheckSigma(t *testing.T) {
	pts := []biasPoint{
		{code: "Steane", eta: 1, sigma: 4.9},
		{code: "Surface", eta: 1, sigma: math.NaN()}, // no failures seen: not a discrepancy
		{code: "Carbon", eta: 4, sigma: maxSigma},
	}
	if err := checkSigma(pts); err != nil {
		t.Fatalf("points within %d sigma: %v", maxSigma, err)
	}
	pts = append(pts, biasPoint{code: "Carbon", eta: 16, sigma: 5.1})
	err := checkSigma(pts)
	if err == nil || !strings.Contains(err.Error(), "Carbon eta=16 (5.10 sigma)") {
		t.Fatalf("a 5.1 sigma point: err = %v", err)
	}
}
