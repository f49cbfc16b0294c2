package main

import (
	"context"
	"fmt"
	"io"
	"os"
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

func TestPrecomputeFillsAndThenSkips(t *testing.T) {
	dir := t.TempDir()

	code, out, errOut := runCLI(t, "-store-dir", dir, "-codes", "Steane,Shor")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "computed  Steane") || !strings.Contains(out, "computed  Shor") {
		t.Fatalf("missing per-code progress:\n%s", out)
	}
	if !strings.Contains(out, "2 synthesized, 0 already stored, 0 failed") {
		t.Fatalf("summary wrong:\n%s", out)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("store has %d files, want 2", len(entries))
	}

	// Second run over the same store must not synthesize anything.
	code, out, errOut = runCLI(t, "-store-dir", dir, "-codes", "Steane,Shor")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "0 synthesized, 2 already stored, 0 failed") {
		t.Fatalf("rerun summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "stored    Steane") {
		t.Fatalf("rerun missing skip lines:\n%s", out)
	}
}

func TestPrecomputeListsTheStore(t *testing.T) {
	dir := t.TempDir()
	if code, _, errOut := runCLI(t, "-store-dir", dir, "-codes", "Steane"); code != 0 {
		t.Fatalf("fill failed: %s", errOut)
	}
	code, out, _ := runCLI(t, "-store-dir", dir, "-list")
	if code != 0 {
		t.Fatalf("list exit %d", code)
	}
	if !strings.Contains(out, "Steane") || !strings.Contains(out, "[[7,1,3]]") || !strings.Contains(out, "1 protocols in") {
		t.Fatalf("listing:\n%s", out)
	}
}

func TestPrecomputeReportsFailuresNonZero(t *testing.T) {
	code, _, errOut := runCLI(t, "-store-dir", t.TempDir(), "-codes", "NoSuchCode")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "NoSuchCode") {
		t.Fatalf("stderr missing failure detail: %s", errOut)
	}
}

func TestPrecomputeRequiresStoreDir(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestPrecomputeEstimateWritesAndSkipsCurves(t *testing.T) {
	dir := t.TempDir()

	// Synthesize the protocol and run its curve job with a small fixed
	// budget over a two-point grid.
	args := []string{"-store-dir", dir, "-codes", "Steane", "-estimate",
		"-rates", "0.03,0.05", "-target-rse", "0", "-mc-shots", "9000", "-seed", "5"}
	code, out, errOut := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "sampling  Steane") || !strings.Contains(out, "estimated Steane: 2 points, 18000 shots") {
		t.Fatalf("estimate progress missing:\n%s", out)
	}
	if !strings.Contains(out, "1 curves estimated, 0 already complete, 0 paused, 0 failed") {
		t.Fatalf("estimate summary wrong:\n%s", out)
	}

	// The job file sits next to the protocol entry in the same directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dfp, dfj int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".dfp"):
			dfp++
		case strings.HasSuffix(e.Name(), ".dfj"):
			dfj++
		}
	}
	if dfp != 1 || dfj != 1 {
		t.Fatalf("store holds %d protocols and %d jobs, want 1 and 1", dfp, dfj)
	}

	// Re-running skips both the synthesis and the finished curve.
	code, out, errOut = runCLI(t, args...)
	if code != 0 {
		t.Fatalf("rerun exit %d\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "curve     Steane already complete") {
		t.Fatalf("rerun did not skip the finished curve:\n%s", out)
	}
	if !strings.Contains(out, "0 curves estimated, 1 already complete, 0 paused, 0 failed") {
		t.Fatalf("rerun summary wrong:\n%s", out)
	}
	if strings.Contains(out, "sampling  Steane") {
		t.Fatalf("rerun sampled a complete curve:\n%s", out)
	}
}

func TestPrecomputeEstimateRejectsBadRates(t *testing.T) {
	code, _, errOut := runCLI(t, "-store-dir", t.TempDir(), "-codes", "Steane",
		"-estimate", "-rates", "banana", "-mc-shots", "10")
	if code != 2 || !strings.Contains(errOut, "bad rate") {
		t.Fatalf("exit %d stderr %q, want 2 with bad-rate detail", code, errOut)
	}
}

// TestPrecomputeStoreROBuildsIncrementalLayer checks the read-only base
// catalog recipe: codes present in the base are skipped without writes, the
// delta lands in the writable overlay only, and -list with only -store-ro
// inspects a catalog without requiring a writable directory.
func TestPrecomputeStoreROBuildsIncrementalLayer(t *testing.T) {
	base := t.TempDir()
	if code, _, errOut := runCLI(t, "-store-dir", base, "-codes", "Steane"); code != 0 {
		t.Fatalf("building base catalog: %s", errOut)
	}

	delta := t.TempDir()
	code, out, errOut := runCLI(t, "-store-dir", delta, "-store-ro", base, "-codes", "Steane,Shor")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "stored    Steane") {
		t.Fatalf("base-catalog protocol was not skipped:\n%s", out)
	}
	if !strings.Contains(out, "computed  Shor") {
		t.Fatalf("delta protocol was not synthesized:\n%s", out)
	}
	if !strings.Contains(out, "1 synthesized, 1 already stored, 0 failed") {
		t.Fatalf("summary wrong:\n%s", out)
	}
	for dir, want := range map[string]int{base: 1, delta: 1} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != want {
			t.Fatalf("%s holds %d files, want %d (delta must not touch the base)", dir, len(entries), want)
		}
	}

	// A read-only catalog can be listed without any writable overlay.
	code, out, _ = runCLI(t, "-store-ro", base, "-list")
	if code != 0 {
		t.Fatalf("list exit %d", code)
	}
	if !strings.Contains(out, "Steane") || !strings.Contains(out, "1 protocols in") {
		t.Fatalf("read-only listing:\n%s", out)
	}

	// Synthesizing without a writable overlay is refused up front.
	if code, _, _ := runCLI(t, "-store-ro", base, "-codes", "Shor"); code != 2 {
		t.Fatalf("exit %d synthesizing into a read-only catalog, want 2", code)
	}
}

// parentFlags lists the command's flags with their defaults from before its
// options flags were bound by dftsp's RegisterFlags: each keeps its name
// and default.
var parentFlags = map[string]string{
	"store-dir": "", "store-ro": "", "codes": "", "prep": "heu", "verif": "opt",
	"flag-all": "false", "timeout": "0s", "list": "false", "estimate": "false",
	"rates": "", "target-rse": "0.1", "mc-shots": "0", "seed": "0",
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
	docs.ParseInvocations(t, "../..", "precompute", func(args []string) error {
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

// TestPrecomputeRefusesBeforeSynthesis checks that an unknown code in the
// list, or a bad estimate flag, leaves the store untouched.
func TestPrecomputeRefusesBeforeSynthesis(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
		want string
	}{
		{[]string{"-codes", "Steane,NoSuchCode"}, 1, "available"},
		{[]string{"-codes", "Steane", "-estimate", "-method", "bogus"}, 2, `method "bogus"`},
	} {
		dir := t.TempDir()
		code, _, errOut := runCLI(t, append([]string{"-store-dir", dir}, tc.args...)...)
		if code != tc.exit || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want %d with %q", tc.args, code, errOut, tc.exit, tc.want)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%v: the store holds %d files, want none", tc.args, len(entries))
		}
	}
}
