package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/dftsp"
	"repro/internal/docs"
	"repro/internal/jobs"
	"repro/internal/sim"
)

// TestMain doubles as the re-exec target for the kill-and-resume
// acceptance test: with JOBS_CLI_HELPER set, the test binary behaves as
// the jobs CLI itself (so a SIGKILL hits a real in-process job run).
func TestMain(m *testing.M) {
	if os.Getenv("JOBS_CLI_HELPER") == "1" {
		os.Exit(run(context.Background(), strings.Split(os.Getenv("JOBS_CLI_ARGS"), "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCLIUsageAndModeErrors(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "frobnicate"); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	if code, _, stderr := runCLI(t, "submit"); code != 2 || !strings.Contains(stderr, "-dir or -addr") {
		t.Errorf("submit without mode: exit %d stderr %q", code, stderr)
	}
	if code, _, _ := runCLI(t, "submit", "-dir", "x", "-addr", "y"); code != 2 {
		t.Errorf("both modes: exit %d, want 2", code)
	}
	if code, _, stderr := runCLI(t, "resume", "-addr", "http://x"); code != 2 || !strings.Contains(stderr, "-dir") {
		t.Errorf("resume over http: exit %d stderr %q", code, stderr)
	}
	if code, _, _ := runCLI(t, "status", "-dir", t.TempDir()); code != 2 {
		t.Errorf("status without ID: exit %d, want 2", code)
	}
}

func TestCLILocalSubmitStatusLs(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t,
		"submit", "-dir", dir, "-code", "Steane",
		"-rates", "0.03,0.05", "-mc-shots", "9000", "-seed", "5")
	if code != 0 {
		t.Fatalf("submit: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "done") || !strings.Contains(stdout, "p=0.03") {
		t.Fatalf("submit output missing results:\n%s", stdout)
	}

	// The job ID is the first token of the final status line.
	var id string
	for _, line := range strings.Split(stdout, "\n") {
		if fields := strings.Fields(line); len(fields) > 1 && len(fields[0]) == 32 {
			id = fields[0]
		}
	}
	if id == "" {
		t.Fatalf("no job ID in output:\n%s", stdout)
	}

	code, stdout, stderr = runCLI(t, "status", "-dir", dir, id)
	if code != 0 || !strings.Contains(stdout, "done") {
		t.Fatalf("status: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	code, stdout, _ = runCLI(t, "ls", "-dir", dir)
	if code != 0 || !strings.Contains(stdout, "1 jobs") || !strings.Contains(stdout, id) {
		t.Fatalf("ls: exit %d\n%s", code, stdout)
	}
	code, stdout, _ = runCLI(t, "resume", "-dir", dir)
	if code != 0 || !strings.Contains(stdout, "nothing to resume") {
		t.Fatalf("resume with everything done: exit %d\n%s", code, stdout)
	}

	// Bad submissions fail with exit 1 (service-level rejection) or 2
	// (flag parsing).
	if code, _, _ := runCLI(t, "submit", "-dir", dir, "-code", "Steane"); code != 1 {
		t.Errorf("submit without budget: exit %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "submit", "-dir", dir, "-rates", "nope", "-mc-shots", "10"); code != 2 {
		t.Errorf("submit with bad rates: exit %d, want 2", code)
	}
}

// newAPIServer exposes the server's /jobs API shape over a test service,
// so the CLI's -addr mode is exercised against real HTTP (the full server
// handler stack has its own tests in cmd/server).
func newAPIServer(t *testing.T) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	svc := dftsp.NewService(2)
	if err := svc.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachJobs(dir, ""); err != nil {
		t.Fatal(err)
	}
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Options  dftsp.Options         `json:"options"`
			Estimate dftsp.EstimateOptions `json:"estimate"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		st, err := svc.SubmitJob(r.Context(), req.Options, req.Estimate)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		all, err := svc.Jobs()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"count": len(all), "jobs": all})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Job(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		events, stop, err := svc.WatchJob(id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		defer stop()
		st, _ := svc.Job(id)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(st)
		for ev := range events {
			enc.Encode(ev)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		svc.ShutdownJobs(context.Background())
	})
	return ts
}

func TestCLIHTTPMode(t *testing.T) {
	ts := newAPIServer(t)
	code, stdout, stderr := runCLI(t,
		"submit", "-addr", ts.URL, "-code", "Steane",
		"-rates", "0.03", "-mc-shots", "9000", "-seed", "5", "-wait")
	if code != 0 {
		t.Fatalf("submit -wait: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	// The streamed "point 0 done" line is best-effort (a fast job can
	// settle before the event stream attaches), so assert on the final
	// status block, which always carries the per-point results.
	if !strings.Contains(stdout, "done") || !strings.Contains(stdout, "p=0.03") {
		t.Fatalf("submit -wait output missing results:\n%s", stdout)
	}
	var id string
	for _, line := range strings.Split(stdout, "\n") {
		if fields := strings.Fields(line); len(fields) > 1 && len(fields[0]) == 32 {
			id = fields[0]
		}
	}
	if code, stdout, _ = runCLI(t, "status", "-addr", ts.URL, id); code != 0 || !strings.Contains(stdout, "done") {
		t.Fatalf("status -addr: exit %d\n%s", code, stdout)
	}
	if code, stdout, _ = runCLI(t, "ls", "-addr", ts.URL); code != 0 || !strings.Contains(stdout, "1 jobs") {
		t.Fatalf("ls -addr: exit %d\n%s", code, stdout)
	}
	if code, _, stderr := runCLI(t, "status", "-addr", ts.URL, strings.Repeat("0", 32)); code != 1 || !strings.Contains(stderr, "404") {
		t.Fatalf("status of unknown job: exit %d stderr %q", code, stderr)
	}
}

// TestKillAndResumeBitIdentical is the crash-safety acceptance test: a
// real OS process running a job is SIGKILLed mid-sampling — no graceful
// checkpoint, no deferred cleanup — then `jobs resume` restarts it from
// the durable shard checkpoints, and the finished pooled counts must be
// bit-identical to an uninterrupted run of the same spec.
func TestKillAndResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process kill-and-resume acceptance test; skipped with -short")
	}
	const budget = 2000 * sim.BlockShots
	dir := t.TempDir()
	args := []string{
		"submit", "-dir", dir, "-code", "Steane",
		"-rates", "0.04", "-mc-shots", strconv.Itoa(budget),
		"-method", "direct", "-seed", "3", "-workers", "1",
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "JOBS_CLI_HELPER=1", "JOBS_CLI_ARGS="+strings.Join(args, "\x1f"))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The job ID is deterministic: rebuild the spec the CLI submits.
	key, err := (dftsp.Options{Code: "Steane"}).Key()
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{
		ProtocolKey: key,
		Method:      "direct",
		Rates:       []float64{0.04},
		MCShots:     budget,
		Seed:        3,
	}
	id := spec.ID()
	jstore, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for durable progress (the point record plus at least one shard
	// checkpoint), then kill the process dead.
	deadline := time.Now().Add(120 * time.Second)
	for {
		if st, err := jstore.Load(id); err == nil && st.Records >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no durable checkpoint appeared; helper output:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reaps the SIGKILLed helper; its error is expected

	interrupted, err := jstore.Load(id)
	if err != nil {
		t.Fatalf("job file unreadable after SIGKILL: %v", err)
	}
	if interrupted.Done {
		t.Log("job finished before the kill landed; resume degenerates to a no-op")
	} else if len(interrupted.Shards) == 0 {
		t.Fatal("no shard checkpoints survived the kill")
	}

	// Resume in-process (different worker count than the killed run — the
	// result must not depend on it) and run to completion.
	code, stdout, stderr := runCLI(t, "resume", "-dir", dir)
	if code != 0 {
		t.Fatalf("resume: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	final, err := jstore.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || !final.Points[0].Done {
		t.Fatalf("resumed job did not finish: %+v", final.Points[0])
	}

	// Reference: the same spec, uninterrupted, in a fresh directory.
	refDir := t.TempDir()
	refArgs := []string{
		"submit", "-dir", refDir, "-code", "Steane",
		"-rates", "0.04", "-mc-shots", strconv.Itoa(budget),
		"-method", "direct", "-seed", "3",
	}
	if code, stdout, stderr := runCLI(t, refArgs...); code != 0 {
		t.Fatalf("reference submit: exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	refStore, err := jobs.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refStore.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Points[0].Counts, ref.Points[0].Counts) {
		t.Fatalf("kill-and-resume diverged from the uninterrupted run:\n resumed  = %+v\n reference= %+v",
			final.Points[0].Counts, ref.Points[0].Counts)
	}
}

// submitParentFlags lists the flags of jobs submit with their defaults
// from before its options flags were bound by dftsp's RegisterFlags: each
// keeps its name and default.
var submitParentFlags = map[string]string{
	"dir": "", "addr": "", "code": "Steane", "prep": "", "verif": "", "flag-all": "false",
	"rates": "", "mc-shots": "0", "target-rse": "0", "max-shots": "0", "method": "",
	"seed": "0", "workers": "0", "wait": "false",
}

func TestParentFlagsKept(t *testing.T) {
	fs := newFlags("submit", &cli{})
	for name, want := range submitParentFlags {
		if f := fs.Lookup(name); f == nil {
			t.Errorf("submit -%s is gone", name)
		} else if f.DefValue != want {
			t.Errorf("submit -%s default %q, want %q", name, f.DefValue, want)
		}
	}
	if f := newFlags("resume", &cli{}).Lookup("workers"); f == nil || f.DefValue != "0" {
		t.Errorf("resume -workers = %+v, want default 0", f)
	}
}

func TestDocumentedInvocationsParse(t *testing.T) {
	docs.ParseInvocations(t, "../..", "jobs", func(args []string) error {
		if len(args) == 0 {
			return errors.New("no subcommand")
		}
		fs := newFlags(args[0], &cli{})
		fs.SetOutput(io.Discard)
		return fs.Parse(args[1:])
	})
}

// TestCLISubmitsBiasedJob submits the biased job a POST /jobs body can
// describe, through the same flags.
func TestCLISubmitsBiasedJob(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "submit", "-dir", dir, "-code", "steane",
		"-rates", "0.03", "-mc-shots", "640", "-bias-2q", "2", "-bias-meas", "3", "-eta", "4", "-workers", "1")
	if code != 0 {
		t.Fatalf("submit: exit %d, stderr %q", code, stderr)
	}
	svc := dftsp.NewService(1)
	if err := svc.AttachJobs(dir, ""); err != nil {
		t.Fatal(err)
	}
	defer svc.ShutdownJobs(context.Background())
	all, err := svc.Jobs()
	if err != nil || len(all) != 1 {
		t.Fatalf("jobs = %v, %v; want one", all, err)
	}
	if s := all[0].Spec; s.Bias2Q != 2 || s.BiasMeas != 3 || s.Eta != 4 {
		t.Fatalf("job spec noise = %g/%g/%g, want 2/3/4", s.Bias2Q, s.BiasMeas, s.Eta)
	}
}
