// Command precompute batch-synthesizes protocols into a persistent store
// directory, so operators can ship pre-warmed caches: a server started with
// -store-dir over a precomputed directory serves every listed protocol from
// disk without ever running the SAT solver (see docs/protocol-format.md for
// the file format).
//
// By default it synthesizes the entire code catalog with the paper's
// default methods; -codes restricts the set (relaxed spellings such as
// "steane" or "11-1-3" are accepted, and an unknown name is refused before
// any synthesis), and -prep/-verif/-prep-budget/-global-limit/-flag-all
// select the synthesis variant (each variant has its own store key, so a
// store can hold several variants of the same code side by side).
// Protocols already in the store are detected through the cache layering
// and skipped without solver work, so re-running precompute after adding
// one code to the list only pays for the new code.
//
// With -store-ro existing catalogs are mounted read-only under the writable
// -store-dir overlay: protocols already present in a base catalog are
// skipped, and only the delta is written to -store-dir — the recipe for
// building an incremental catalog layer on top of a shipped base image.
// -list with only -store-ro inspects a catalog without writing anything.
//
// With -estimate it additionally runs (or resumes) one persistent
// estimation job per synthesized protocol — by default the paper's Fig. 4
// curve at an adaptive 10% relative standard error — storing the
// checkpointed job file next to the protocol in the same directory (see
// docs/job-format.md). The estimate flags are those of a POST /jobs body,
// checked before any synthesis. Curves already complete are detected
// through the job's content address and skipped without sampling; an
// interrupted run (Ctrl-C checkpoints in-flight shards) resumes from its
// last checkpoint on the next invocation, finishing bit-identical to an
// uninterrupted run.
//
// Usage:
//
//	precompute -store-dir ./protocols                    # whole catalog
//	precompute -store-dir ./protocols -codes Steane,Shor
//	precompute -store-dir ./protocols -prep opt -verif global
//	precompute -store-dir ./protocols -list              # show what is stored
//	precompute -store-dir ./data -codes Steane -estimate # protocols + curves
//	precompute -store-dir ./delta -store-ro ./base       # incremental layer
//	precompute -store-ro ./base -list                    # inspect a catalog
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
	storeDir, storeRO, codes string
	timeout                  time.Duration
	list, estimate           bool
	opts                     dftsp.Options
	est                      dftsp.EstimateOptions
}

// newFlags returns the command's flag set, bound to c.
func newFlags(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("precompute", flag.ContinueOnError)
	c.opts = dftsp.Options{Prep: dftsp.PrepHeuristic, Verif: dftsp.VerifOptimal}
	c.est = dftsp.EstimateOptions{TargetRSE: 0.1}
	fs.StringVar(&c.storeDir, "store-dir", "", "writable store directory to fill (required unless -list with -store-ro)")
	fs.StringVar(&c.storeRO, "store-ro", "", "comma-separated read-only base catalogs; protocols found there are not re-synthesized")
	fs.StringVar(&c.codes, "codes", "", "comma-separated catalog code names (empty: the whole catalog)")
	fs.DurationVar(&c.timeout, "timeout", 0, "overall deadline (0: none)")
	fs.BoolVar(&c.list, "list", false, "list the store's contents instead of synthesizing")
	fs.BoolVar(&c.estimate, "estimate", false, "also run (or resume) a persistent estimation job per protocol, stored next to it; the estimate flags shape it (set -target-rse 0 with -mc-shots for a fixed budget)")
	c.opts.RegisterFlags(fs)
	c.est.RegisterFlags(fs)
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
	var roDirs []string
	for _, dir := range strings.Split(c.storeRO, ",") {
		if dir = strings.TrimSpace(dir); dir != "" {
			roDirs = append(roDirs, dir)
		}
	}
	if c.storeDir == "" && !(c.list && len(roDirs) > 0) {
		fmt.Fprintln(stderr, "precompute: -store-dir is required (add read-only base catalogs with -store-ro)")
		fs.Usage()
		return 2
	}
	if c.estimate {
		if err := c.est.Validate(); err != nil {
			fmt.Fprintln(stderr, "precompute:", err)
			return 2
		}
	}
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}

	svc := dftsp.NewService(c.est.Workers)
	if err := svc.AttachStoreTiers(c.storeDir, roDirs...); err != nil {
		fmt.Fprintln(stderr, "precompute:", err)
		return 1
	}

	if c.list {
		return listStore(svc, stdout, stderr)
	}

	codes, err := dftsp.Codes(c.codes)
	if err != nil {
		fmt.Fprintln(stderr, "precompute:", err)
		return 1
	}
	items := make([]dftsp.Options, len(codes))
	for i, cd := range codes {
		items[i] = c.opts
		items[i].Code = cd.Name
	}

	start := time.Now()
	results := svc.SynthesizeBatch(ctx, items, func(ev dftsp.BatchEvent) {
		switch ev.Status {
		case dftsp.BatchSynthesizing:
			fmt.Fprintf(stdout, "checking  %s\n", items[ev.Index].Code)
		case dftsp.BatchDone:
			verb := "computed "
			if ev.CacheHit {
				verb = "stored   " // already on disk; served without solving
			}
			fmt.Fprintf(stdout, "%s %s %s (%dms)\n", verb, ev.Code, ev.Params, ev.Elapsed)
		case dftsp.BatchError:
			fmt.Fprintf(stderr, "failed    %s: %s\n", items[ev.Index].Code, ev.Error)
		}
	})

	var synthesized, skipped, failed int
	for _, r := range results {
		switch {
		case r.Err != nil:
			failed++
		case r.CacheHit:
			skipped++
		default:
			synthesized++
		}
	}
	st := svc.Stats()
	fmt.Fprintf(stdout, "precompute: %d synthesized, %d already stored, %d failed in %v (store: %s, %d writes, %d write failures)\n",
		synthesized, skipped, failed, time.Since(start).Round(time.Millisecond), c.storeDir, st.StoreWrites, st.WriteFailures)
	if failed > 0 || st.WriteFailures > 0 {
		return 1
	}
	if c.estimate {
		return estimateCurves(ctx, svc, items, results, c.est, stdout, stderr)
	}
	return 0
}

// estimateCurves runs one persistent estimation job per synthesized
// protocol, sequentially (each job already fans out over the machine's
// workers). Finished curves are recognized by the job's content address and
// skipped; a cancelled ctx checkpoints the in-flight job and leaves it
// paused for the next run to resume.
func estimateCurves(ctx context.Context, svc *dftsp.Service, items []dftsp.Options, results []dftsp.BatchResult, eo dftsp.EstimateOptions, stdout, stderr io.Writer) int {
	if err := svc.AttachJobs(svc.StoreDir(), ""); err != nil {
		fmt.Fprintln(stderr, "precompute:", err)
		return 1
	}
	defer svc.ShutdownJobs(context.Background())

	start := time.Now()
	var estimated, complete, paused, failed int
	for i, r := range results {
		if r.Err != nil {
			continue // synthesis already failed and was reported
		}
		code := items[i].Code
		st, err := svc.SubmitJob(ctx, items[i], eo)
		if err != nil {
			fmt.Fprintf(stderr, "failed    %s curve: %s\n", code, err)
			failed++
			continue
		}
		if st.State == dftsp.JobStateDone {
			fmt.Fprintf(stdout, "curve     %s already complete (%s)\n", code, st.ID)
			complete++
			continue
		}
		fmt.Fprintf(stdout, "sampling  %s (%s)\n", code, st.ID)
		final := awaitJob(ctx, svc, st.ID)
		switch final.State {
		case dftsp.JobStateDone:
			fmt.Fprintf(stdout, "estimated %s: %d points, %d shots (%s)\n", code, len(final.Points), final.Shots, final.ID)
			estimated++
		case dftsp.JobStateFailed:
			fmt.Fprintf(stderr, "failed    %s curve: %s\n", code, final.Error)
			failed++
		default:
			// Paused by cancellation: durable, resumes on the next run.
			fmt.Fprintf(stdout, "paused    %s at %d shots; re-run to resume (%s)\n", code, final.Shots, final.ID)
			paused++
		}
	}
	fmt.Fprintf(stdout, "precompute: %d curves estimated, %d already complete, %d paused, %d failed in %v\n",
		estimated, complete, paused, failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return 1
	}
	return 0
}

// awaitJob polls until the job leaves the running state. On ctx
// cancellation it checkpoints in-flight shards (graceful shutdown) before
// reporting the job's settled state.
func awaitJob(ctx context.Context, svc *dftsp.Service, id string) dftsp.JobStatus {
	for {
		st, err := svc.Job(id)
		if err != nil {
			return dftsp.JobStatus{ID: id, State: dftsp.JobStateFailed, Error: err.Error()}
		}
		if st.State != dftsp.JobStateRunning {
			return st
		}
		select {
		case <-ctx.Done():
			svc.ShutdownJobs(context.Background())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// listStore prints one line per stored protocol.
func listStore(svc *dftsp.Service, stdout, stderr io.Writer) int {
	infos, err := svc.Protocols()
	if err != nil {
		fmt.Fprintln(stderr, "precompute:", err)
		return 1
	}
	n := 0
	for _, info := range infos {
		if !info.OnDisk {
			continue
		}
		fmt.Fprintf(stdout, "%-14s %-12s %s\n", info.Code, info.Params, info.Key)
		n++
	}
	fmt.Fprintf(stdout, "%d protocols in %s\n", n, svc.StoreDir())
	return 0
}
