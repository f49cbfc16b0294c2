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

// parentFlags lists the command's flags with their defaults: each keeps its
// name and default.
var parentFlags = map[string]string{"codes": "", "all": "false", "check": "false"}

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
	docs.ParseInvocations(t, "../..", "table1", func(args []string) error {
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

// TestCodesResolvedLikeOptions accepts the relaxed spellings every other
// surface accepts and refuses an unknown name before printing a row.
func TestCodesResolvedLikeOptions(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-codes", "steane")
	if code != 0 || !strings.Contains(stdout, "Steane") {
		t.Fatalf("-codes steane: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	code, stdout, stderr = runCLI(t, "-codes", "Steane,NoSuchCode")
	if code != 1 || stdout != "" || !strings.Contains(stderr, `"NoSuchCode"`) || !strings.Contains(stderr, "Tesseract") {
		t.Fatalf("-codes Steane,NoSuchCode: exit %d, stdout %q, stderr %q; want 1 listing the catalog", code, stdout, stderr)
	}
}

// TestFailedRowsExitOne prints every row, failed ones as ERROR, and exits 1
// when any failed: a cancelled context fails each synthesis.
func TestFailedRowsExitOne(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	code := run(ctx, []string{"-codes", "Steane,Shor"}, &out, &errOut)
	if code != 1 || strings.Count(out.String(), "ERROR") != 2 {
		t.Fatalf("cancelled run: exit %d, stderr %q, stdout:\n%s; want 1 and two ERROR rows", code, errOut.String(), out.String())
	}
}
