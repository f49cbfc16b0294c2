package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/docs"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// parentFlags lists the command's flags with their defaults from before its
// options flags were bound by dftsp's RegisterFlags: each keeps its name
// and default.
var parentFlags = map[string]string{
	"code": "", "surface": "0", "hx": "", "hz": "", "prep": "heu", "verif": "opt",
	"check": "false", "qasm": "", "rate": "0", "shots": "0", "workers": "0",
	"target-rse": "0", "max-shots": "0", "method": "", "bias2q": "1",
	"biasmeas": "1", "eta": "1", "cpuprofile": "",
}

func TestParentFlagsKept(t *testing.T) {
	fs := newFlags(&cli{})
	for name, want := range parentFlags {
		f := fs.Lookup(name)
		switch {
		case f == nil:
			t.Errorf("-%s is gone", name)
		// -rate was a float and is now an alias of the -rates list; both
		// spell "no rate" as their zero value.
		case name == "rate" && f.DefValue == "":
		case f.DefValue != want:
			t.Errorf("-%s default %q, want %q", name, f.DefValue, want)
		}
	}
}

func TestDocumentedInvocationsParse(t *testing.T) {
	docs.ParseInvocations(t, "../..", "dftsp", func(args []string) error {
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

// TestBadEstimateFlagsRefusedBeforeSynthesis names a code that does not
// exist: the method error can only come first if the estimate options are
// checked before synthesis starts.
func TestBadEstimateFlagsRefusedBeforeSynthesis(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-code", "NoSuchCode", "-rate", "1e-3", "-method", "bogus")
	if code != 1 || !strings.Contains(stderr, `method "bogus"`) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1 naming the method before any synthesis", code, stdout, stderr)
	}
	if code, _, stderr := runCLI(t, "-rates", "0.01,banana"); code != 2 || !strings.Contains(stderr, `bad rate "banana"`) {
		t.Fatalf("exit %d, stderr %q; want 2 naming the bad rate", code, stderr)
	}
}

func TestEstimatesEveryRate(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-code", "steane", "-rates", "0.02,0.05", "-shots", "640", "-workers", "1", "-samples", "200")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"logical error rate at p=0.02:", "Monte-Carlo cross-check at p=0.02:",
		"logical error rate at p=0.05:", "Monte-Carlo cross-check at p=0.05:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}
