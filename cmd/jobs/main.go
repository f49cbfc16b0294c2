// Command jobs manages persistent estimation jobs (see docs/job-format.md):
// long-running logical error-rate estimates that execute as small
// checkpointed shards, survive kills and restarts, and — because shard
// counts pool exactly — finish bit-identical to an uninterrupted run.
//
// It operates in one of two modes. With -addr it is a thin client of a
// running server's /jobs API (submit returns immediately unless -wait
// follows the job's NDJSON event stream). With -dir it runs the job
// in-process against a job directory, which doubles as the protocol store:
// submit executes the job locally and waits for it, resume picks up every
// unfinished job in the directory — the recovery step after a crash or
// kill. Interrupting a local run (Ctrl-C) checkpoints in-flight shards and
// exits with the job paused; a later resume continues from there.
//
// Usage:
//
//	jobs submit -dir ./data -code Steane -rates 1e-2,3e-2 -mc-shots 100000
//	jobs submit -addr http://localhost:8080 -code Steane -target-rse 0.1 -wait
//	jobs status -dir ./data 0123456789abcdef0123456789abcdef
//	jobs ls     -addr http://localhost:8080
//	jobs resume -dir ./data
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/dftsp"
	"repro/internal/jobs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage:
  jobs submit -dir DIR | -addr URL [options]   submit a job (-dir runs it and waits)
  jobs status -dir DIR | -addr URL ID          report one job
  jobs ls     -dir DIR | -addr URL             list all jobs
  jobs resume -dir DIR                         resume unfinished jobs and wait

submit options: -code and the synthesis and estimate flags of a POST /jobs
body (see jobs submit -h); -workers sizes the local pool (-dir only); -wait
(with -addr) follows the job's event stream to completion.
`

// run is main without the process-global parts, so tests can drive the CLI
// end to end. A usage error exits 2, a failed subcommand 1.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	sub, ok := map[string]func(ctx context.Context, c *cli, args []string, stdout, stderr io.Writer) error{
		"submit": runSubmit,
		"status": runStatus,
		"ls":     runLs,
		"resume": runResume,
	}[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "jobs: unknown command %q\n%s", args[0], usageText)
		return 2
	}
	var c cli
	fs := newFlags(args[0], &c)
	fs.SetOutput(stderr)
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if err := c.checkUsage(args[0], fs.Args()); err != nil {
		fmt.Fprintf(stderr, "jobs %s: %v\n", args[0], err)
		return 2
	}
	if err := sub(ctx, &c, fs.Args(), stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "jobs %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

// cli is what a subcommand's command line selects.
type cli struct {
	dir, addr string
	opts      dftsp.Options         // submit
	est       dftsp.EstimateOptions // submit
	wait      bool                  // submit
	workers   int                   // resume
}

// newFlags returns the flag set of subcommand cmd, bound to c: the -dir or
// -addr mode every subcommand takes, plus submit's protocol and estimate
// flags and resume's local pool size.
func newFlags(cmd string, c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("jobs "+cmd, flag.ContinueOnError)
	fs.StringVar(&c.dir, "dir", "", "job directory for local in-process execution")
	fs.StringVar(&c.addr, "addr", "", "base URL of a running server's /jobs API")
	switch cmd {
	case "submit":
		c.opts.Code = "Steane"
		fs.StringVar(&c.opts.Code, "code", c.opts.Code, "catalog code name")
		fs.BoolVar(&c.wait, "wait", false, "with -addr: follow the event stream until the job settles")
		c.opts.RegisterFlags(fs)
		c.est.RegisterFlags(fs)
	case "resume":
		fs.IntVar(&c.workers, "workers", 0, "local worker count (0: DFTSP_WORKERS or the CPU count)")
	}
	return fs
}

// checkUsage validates the mode selection of subcommand cmd and its
// arguments: resume runs in local mode only, and status needs a job ID.
func (c *cli) checkUsage(cmd string, args []string) error {
	switch {
	case c.dir == "" && c.addr == "":
		return errors.New("one of -dir or -addr is required")
	case c.dir != "" && c.addr != "":
		return errors.New("-dir and -addr are mutually exclusive")
	case cmd == "resume" && c.dir == "":
		return errors.New("only supported with -dir (a running server resumes its jobs at boot)")
	case cmd == "status" && (len(args) == 0 || args[0] == ""):
		return errors.New("a job ID is required")
	}
	return nil
}

// openLocal builds an in-process service over dir, which serves as both the
// protocol store and the job directory.
func openLocal(dir string, workers int) (*dftsp.Service, error) {
	svc := dftsp.NewService(workers)
	if err := svc.AttachStore(dir); err != nil {
		return nil, err
	}
	if err := svc.AttachJobs(dir, ""); err != nil {
		return nil, err
	}
	return svc, nil
}

// errJobFailed reports a job that settled in the failed state; its status,
// error included, is already printed.
var errJobFailed = errors.New("job failed")

func runSubmit(ctx context.Context, c *cli, _ []string, stdout, stderr io.Writer) error {
	if c.addr == "" {
		svc, err := openLocal(c.dir, c.est.Workers)
		if err != nil {
			return err
		}
		st, err := svc.SubmitJob(ctx, c.opts, c.est)
		if err != nil {
			return err
		}
		return waitLocal(ctx, svc, []string{st.ID}, stdout)
	}
	body, err := json.Marshal(struct {
		Options  dftsp.Options         `json:"options"`
		Estimate dftsp.EstimateOptions `json:"estimate"`
	}{c.opts, c.est})
	if err != nil {
		return err
	}
	var st dftsp.JobStatus
	if err := httpJSON(ctx, http.MethodPost, c.addr+"/jobs", body, &st); err != nil {
		return err
	}
	if c.wait {
		if st, err = followHTTP(ctx, c.addr, st.ID, stdout); err != nil {
			return err
		}
	}
	printStatus(stdout, st)
	if st.State == jobs.StateFailed {
		return errJobFailed
	}
	return nil
}

// waitLocal follows the given local jobs until each settles; a cancelled
// ctx (Ctrl-C) checkpoints in-flight shards and leaves them paused.
func waitLocal(ctx context.Context, svc *dftsp.Service, ids []string, stdout io.Writer) error {
	var failed, shutdown error
	for _, id := range ids {
		events, stop, err := svc.WatchJob(id)
		if err != nil {
			return err
		}
	follow:
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					break follow
				}
				if ev.Type == "point" && ev.Result != nil {
					printPoint(stdout, *ev.Result)
				}
			case <-ctx.Done():
				stop()
				// Graceful: checkpoint in-flight shards, pause the jobs.
				shutdown = svc.ShutdownJobs(context.Background())
				break follow
			}
		}
		stop()
		st, err := svc.Job(id)
		if err != nil {
			return err
		}
		printStatus(stdout, st)
		if st.State == jobs.StateFailed {
			failed = errJobFailed
		}
	}
	// Idempotent when ctx was cancelled above; otherwise a clean stop.
	if err := svc.ShutdownJobs(context.Background()); err != nil || shutdown != nil {
		return fmt.Errorf("shutdown: %w", errors.Join(shutdown, err))
	}
	return failed
}

func runStatus(ctx context.Context, c *cli, args []string, stdout, _ io.Writer) error {
	var st dftsp.JobStatus
	if c.addr != "" {
		if err := httpJSON(ctx, http.MethodGet, c.addr+"/jobs/"+args[0], nil, &st); err != nil {
			return err
		}
	} else {
		svc, err := openLocal(c.dir, 1)
		if err != nil {
			return err
		}
		defer svc.ShutdownJobs(context.Background())
		if st, err = svc.Job(args[0]); err != nil {
			return err
		}
	}
	printStatus(stdout, st)
	return nil
}

func runLs(ctx context.Context, c *cli, _ []string, stdout, _ io.Writer) error {
	var all []dftsp.JobStatus
	if c.addr != "" {
		var resp struct {
			Count int               `json:"count"`
			Jobs  []dftsp.JobStatus `json:"jobs"`
		}
		if err := httpJSON(ctx, http.MethodGet, c.addr+"/jobs", nil, &resp); err != nil {
			return err
		}
		all = resp.Jobs
	} else {
		svc, err := openLocal(c.dir, 1)
		if err != nil {
			return err
		}
		defer svc.ShutdownJobs(context.Background())
		if all, err = svc.Jobs(); err != nil {
			return err
		}
	}
	for _, st := range all {
		done := 0
		for _, pt := range st.Points {
			if pt.Done {
				done++
			}
		}
		fmt.Fprintf(stdout, "%s  %-9s %-32s points %d/%d  shots %d\n",
			st.ID, st.State, st.Spec.ProtocolKey, done, len(st.Points), st.Shots)
	}
	fmt.Fprintf(stdout, "%d jobs\n", len(all))
	return nil
}

func runResume(ctx context.Context, c *cli, _ []string, stdout, stderr io.Writer) error {
	svc, err := openLocal(c.dir, c.workers)
	if err != nil {
		return err
	}
	resumed, err := svc.ResumeJobs()
	if err != nil {
		// Partial resumes still run; report the failures and follow the rest.
		fmt.Fprintln(stderr, "jobs resume:", err)
	}
	if len(resumed) == 0 {
		fmt.Fprintln(stdout, "nothing to resume")
		return svc.ShutdownJobs(context.Background())
	}
	fmt.Fprintf(stdout, "resuming %d jobs\n", len(resumed))
	ids := make([]string, len(resumed))
	for i, st := range resumed {
		ids[i] = st.ID
	}
	return waitLocal(ctx, svc, ids, stdout)
}

// httpJSON performs one JSON request/response round trip, surfacing the
// server's error payload on non-2xx statuses.
func httpJSON(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// followHTTP follows a job's NDJSON event stream until it settles, printing
// point completions, then returns the final status. If the stream drops
// while the job still runs (server restart, proxy timeout) it re-attaches.
func followHTTP(ctx context.Context, base, id string, stdout io.Writer) (dftsp.JobStatus, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
		if err != nil {
			return dftsp.JobStatus{}, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return dftsp.JobStatus{}, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return dftsp.JobStatus{}, fmt.Errorf("events stream: %s", resp.Status)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		first := true
		for sc.Scan() {
			if first {
				first = false // the status snapshot line; final status re-fetched below
				continue
			}
			var ev dftsp.JobEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				continue
			}
			if ev.Type == "point" && ev.Result != nil {
				printPoint(stdout, *ev.Result)
			}
		}
		resp.Body.Close()
		if err := ctx.Err(); err != nil {
			return dftsp.JobStatus{}, err
		}
		var st dftsp.JobStatus
		if err := httpJSON(ctx, http.MethodGet, base+"/jobs/"+id, nil, &st); err != nil {
			return dftsp.JobStatus{}, err
		}
		if st.State != jobs.StateRunning {
			return st, nil
		}
	}
}

// printPoint renders one finished point of a job's event stream.
func printPoint(w io.Writer, pt jobs.PointStatus) {
	fmt.Fprintf(w, "point %d done: p=%g pl=%g rse=%.3g shots=%d (%s)\n",
		pt.Point, pt.Rate, pt.PL, pt.RSE, pt.Shots, pt.Method)
}

// printStatus renders one job: a header line, then every point with any
// sampling progress.
func printStatus(w io.Writer, st dftsp.JobStatus) {
	target, budget := st.Spec.Budget()
	goal := fmt.Sprintf("mc_shots=%d", budget)
	if target > 0 {
		goal = fmt.Sprintf("target_rse=%g max_shots=%d", target, budget)
	}
	fmt.Fprintf(w, "%s  %-9s %s %s seed=%d  shots %d\n",
		st.ID, st.State, st.Spec.ProtocolKey, goal, st.Spec.Seed, st.Shots)
	for _, pt := range st.Points {
		if pt.Shots == 0 && !pt.Done {
			continue
		}
		state := "running"
		if pt.Done {
			state = "done"
		}
		fmt.Fprintf(w, "  p=%-10g %-7s %-6s shots %-9d fails %-7d pl %.6g rse %.3g\n",
			pt.Rate, state, pt.Method, pt.Shots, pt.Fails, pt.PL, pt.RSE)
	}
	if st.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", st.Error)
	}
}
