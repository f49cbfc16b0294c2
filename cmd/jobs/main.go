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
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
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

submit options: -code -prep -verif -flag-all select the protocol;
-rates -mc-shots -target-rse -max-shots -method -seed shape the
estimate; -wait (with -addr) follows the job's event stream to completion.
`

// run is main without the process-global parts, so tests can drive the CLI
// end to end.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "submit":
		return runSubmit(ctx, args[1:], stdout, stderr)
	case "status":
		return runStatus(ctx, args[1:], stdout, stderr)
	case "ls":
		return runLs(ctx, args[1:], stdout, stderr)
	case "resume":
		return runResume(ctx, args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "jobs: unknown command %q\n%s", args[0], usageText)
		return 2
	}
}

// modeFlags is the -dir/-addr mode selection shared by every subcommand.
type modeFlags struct {
	dir  *string
	addr *string
}

func addModeFlags(fs *flag.FlagSet) modeFlags {
	return modeFlags{
		dir:  fs.String("dir", "", "job directory for local in-process execution"),
		addr: fs.String("addr", "", "base URL of a running server's /jobs API"),
	}
}

// check validates the mode selection; needDir restricts the subcommand to
// local mode.
func (m modeFlags) check(stderr io.Writer, cmd string, needDir bool) bool {
	switch {
	case *m.dir == "" && *m.addr == "":
		fmt.Fprintf(stderr, "jobs %s: one of -dir or -addr is required\n", cmd)
	case *m.dir != "" && *m.addr != "":
		fmt.Fprintf(stderr, "jobs %s: -dir and -addr are mutually exclusive\n", cmd)
	case needDir && *m.dir == "":
		fmt.Fprintf(stderr, "jobs %s: only supported with -dir (a running server resumes its jobs at boot)\n", cmd)
	default:
		return true
	}
	return false
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

func runSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobs submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := addModeFlags(fs)
	var (
		code      = fs.String("code", "Steane", "catalog code name")
		prep      = fs.String("prep", "", "preparation synthesis: heu or opt (default: the paper's)")
		verif     = fs.String("verif", "", "verification synthesis: opt or global")
		flagAll   = fs.Bool("flag-all", false, "force a flag on every verification measurement")
		rates     = fs.String("rates", "", "comma-separated physical error rates (default: the paper's Fig. 4 grid)")
		mcShots   = fs.Int("mc-shots", 0, "fixed Monte-Carlo shots per rate")
		targetRSE = fs.Float64("target-rse", 0, "adaptive sampling: stop at this relative standard error")
		maxShots  = fs.Int("max-shots", 0, "adaptive sampling cap per rate (default 1e7)")
		method    = fs.String("method", "", "sampling method: auto, direct or rare")
		seed      = fs.Int64("seed", 0, "sampling seed (default 1)")
		workers   = fs.Int("workers", 0, "local worker count (default: CPU count; -dir only)")
		wait      = fs.Bool("wait", false, "with -addr: follow the event stream until the job settles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !mode.check(stderr, "submit", false) {
		return 2
	}
	opts := dftsp.Options{Code: *code, Prep: *prep, Verif: *verif, FlagAll: *flagAll}
	eo := dftsp.EstimateOptions{
		MCShots:   *mcShots,
		TargetRSE: *targetRSE,
		MaxShots:  *maxShots,
		Method:    *method,
		Seed:      *seed,
	}
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintf(stderr, "jobs submit: bad rate %q: %v\n", f, err)
				return 2
			}
			eo.Rates = append(eo.Rates, r)
		}
	}

	if *mode.addr != "" {
		body, err := json.Marshal(struct {
			Options  dftsp.Options         `json:"options"`
			Estimate dftsp.EstimateOptions `json:"estimate"`
		}{opts, eo})
		if err != nil {
			fmt.Fprintln(stderr, "jobs submit:", err)
			return 1
		}
		var st dftsp.JobStatus
		if err := httpJSON(ctx, http.MethodPost, *mode.addr+"/jobs", body, &st); err != nil {
			fmt.Fprintln(stderr, "jobs submit:", err)
			return 1
		}
		if !*wait {
			printStatus(stdout, st)
			return 0
		}
		st, err = followHTTP(ctx, *mode.addr, st.ID, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "jobs submit:", err)
			return 1
		}
		printStatus(stdout, st)
		if st.State == jobs.StateFailed {
			return 1
		}
		return 0
	}

	svc, err := openLocal(*mode.dir, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "jobs submit:", err)
		return 1
	}
	st, err := svc.SubmitJob(ctx, opts, eo)
	if err != nil {
		fmt.Fprintln(stderr, "jobs submit:", err)
		return 1
	}
	return waitLocal(ctx, svc, []string{st.ID}, stdout, stderr)
}

// waitLocal follows the given local jobs until each settles; a cancelled
// ctx (Ctrl-C) checkpoints in-flight shards and leaves them paused.
func waitLocal(ctx context.Context, svc *dftsp.Service, ids []string, stdout, stderr io.Writer) int {
	code := 0
	for _, id := range ids {
		events, stop, err := svc.WatchJob(id)
		if err != nil {
			fmt.Fprintln(stderr, "jobs:", err)
			return 1
		}
	follow:
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					break follow
				}
				if ev.Type == "point" && ev.Result != nil {
					pt := *ev.Result
					fmt.Fprintf(stdout, "point %d done: p=%g pl=%g rse=%.3g shots=%d (%s)\n",
						pt.Point, pt.Rate, pt.PL, pt.RSE, pt.Shots, pt.Method)
				}
			case <-ctx.Done():
				stop()
				// Graceful: checkpoint in-flight shards, pause the jobs.
				if err := svc.ShutdownJobs(context.Background()); err != nil {
					fmt.Fprintln(stderr, "jobs: shutdown:", err)
				}
				break follow
			}
		}
		stop()
		st, err := svc.Job(id)
		if err != nil {
			fmt.Fprintln(stderr, "jobs:", err)
			return 1
		}
		printStatus(stdout, st)
		if st.State == jobs.StateFailed {
			code = 1
		}
	}
	// Idempotent when ctx was cancelled above; otherwise a clean stop.
	if err := svc.ShutdownJobs(context.Background()); err != nil {
		fmt.Fprintln(stderr, "jobs: shutdown:", err)
		return 1
	}
	return code
}

func runStatus(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobs status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := addModeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !mode.check(stderr, "status", false) {
		return 2
	}
	id := fs.Arg(0)
	if id == "" {
		fmt.Fprintln(stderr, "jobs status: a job ID is required")
		return 2
	}
	var st dftsp.JobStatus
	if *mode.addr != "" {
		if err := httpJSON(ctx, http.MethodGet, *mode.addr+"/jobs/"+id, nil, &st); err != nil {
			fmt.Fprintln(stderr, "jobs status:", err)
			return 1
		}
	} else {
		svc, err := openLocal(*mode.dir, 1)
		if err != nil {
			fmt.Fprintln(stderr, "jobs status:", err)
			return 1
		}
		defer svc.ShutdownJobs(context.Background())
		if st, err = svc.Job(id); err != nil {
			fmt.Fprintln(stderr, "jobs status:", err)
			return 1
		}
	}
	printStatus(stdout, st)
	return 0
}

func runLs(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobs ls", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := addModeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !mode.check(stderr, "ls", false) {
		return 2
	}
	var all []dftsp.JobStatus
	if *mode.addr != "" {
		var resp struct {
			Count int               `json:"count"`
			Jobs  []dftsp.JobStatus `json:"jobs"`
		}
		if err := httpJSON(ctx, http.MethodGet, *mode.addr+"/jobs", nil, &resp); err != nil {
			fmt.Fprintln(stderr, "jobs ls:", err)
			return 1
		}
		all = resp.Jobs
	} else {
		svc, err := openLocal(*mode.dir, 1)
		if err != nil {
			fmt.Fprintln(stderr, "jobs ls:", err)
			return 1
		}
		defer svc.ShutdownJobs(context.Background())
		if all, err = svc.Jobs(); err != nil {
			fmt.Fprintln(stderr, "jobs ls:", err)
			return 1
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
	return 0
}

func runResume(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobs resume", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := addModeFlags(fs)
	workers := fs.Int("workers", 0, "local worker count (default: CPU count)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !mode.check(stderr, "resume", true) {
		return 2
	}
	svc, err := openLocal(*mode.dir, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "jobs resume:", err)
		return 1
	}
	resumed, err := svc.ResumeJobs()
	if err != nil {
		// Partial resumes still run; report the failures and follow the rest.
		fmt.Fprintln(stderr, "jobs resume:", err)
	}
	if len(resumed) == 0 {
		fmt.Fprintln(stdout, "nothing to resume")
		if err := svc.ShutdownJobs(context.Background()); err != nil {
			fmt.Fprintln(stderr, "jobs resume:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "resuming %d jobs\n", len(resumed))
	ids := make([]string, len(resumed))
	for i, st := range resumed {
		ids[i] = st.ID
	}
	return waitLocal(ctx, svc, ids, stdout, stderr)
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
				pt := *ev.Result
				fmt.Fprintf(stdout, "point %d done: p=%g pl=%g rse=%.3g shots=%d (%s)\n",
					pt.Point, pt.Rate, pt.PL, pt.RSE, pt.Shots, pt.Method)
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
