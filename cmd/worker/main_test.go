package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestMain doubles as the re-exec target for the worker-fleet acceptance
// tests: with WORKER_HELPER set, the test binary behaves as the worker
// itself — including signal handling — so SIGKILL and SIGTERM hit a real
// worker process mid-shard.
func TestMain(m *testing.M) {
	if os.Getenv("WORKER_HELPER") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		ec := run(ctx, strings.Split(os.Getenv("WORKER_ARGS"), "\x1f"), os.Stdout, os.Stderr)
		stop()
		os.Exit(ec)
	}
	os.Exit(m.Run())
}

const testKey = "steane-acceptance"

var (
	protoOnce sync.Once
	proto     *core.Protocol
	protoErr  error
)

func steane(t *testing.T) *core.Protocol {
	t.Helper()
	protoOnce.Do(func() {
		proto, protoErr = core.Build(context.Background(), code.Steane(),
			core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	})
	if protoErr != nil {
		t.Fatalf("build steane: %v", protoErr)
	}
	return proto
}

func resolver(t *testing.T) jobs.Resolver {
	p := steane(t)
	return func(ctx context.Context, key string) (*sim.Estimator, string, error) {
		if key != testKey {
			return nil, "", fmt.Errorf("unknown protocol %q", key)
		}
		return sim.NewEstimator(p), "sha256:steane", nil
	}
}

// startCoordinator builds a jobs runner with a live workers listener and
// protocol serving, returning it with the listener address.
func startCoordinator(t *testing.T, localWorkers int) (*jobs.Runner, string) {
	t.Helper()
	p := steane(t)
	st, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := jobs.NewRunner(st, resolver(t), localWorkers, "127.0.0.1:0")
	if err := r.StartRemote(func(key string) ([]byte, error) {
		if key != testKey {
			return nil, fmt.Errorf("unknown protocol %q", key)
		}
		return store.Encode(store.Meta{Key: key}, p)
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	rs, ok := r.Remote()
	if !ok {
		t.Fatal("remote listener not active")
	}
	return r, rs.Addr
}

type workerProc struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
}

// spawnWorker re-execs the test binary as a real worker process.
func spawnWorker(t *testing.T, args ...string) *workerProc {
	t.Helper()
	w := &workerProc{cmd: exec.Command(os.Args[0])}
	w.cmd.Env = append(os.Environ(),
		"WORKER_HELPER=1",
		"WORKER_ARGS="+strings.Join(args, "\x1f"))
	w.cmd.Stdout = &w.stdout
	w.cmd.Stderr = &w.stderr
	if err := w.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.cmd.Process.Kill()
		w.cmd.Wait()
	})
	return w
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func waitDone(t *testing.T, r *jobs.Runner, id string) jobs.Status {
	t.Helper()
	var st jobs.Status
	waitFor(t, "job "+id, 120*time.Second, func() bool {
		var err error
		st, err = r.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		return st.State != jobs.StateRunning
	})
	return st
}

func acceptanceSpec() jobs.Spec {
	return jobs.Spec{
		ProtocolKey: testKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     (sim.BlocksPerRound + 4) * sim.BlockShots,
		Seed:        29,
	}
}

// TestWorkerFleetKillMidShardBitIdentical is the acceptance test from the
// issue: a coordinator with a 1-worker local pool and three worker
// processes — one SIGKILL'd while holding a lease, one randomly delayed —
// must finish the job with counts and statistics bit-identical to a plain
// local run of the same spec.
func TestWorkerFleetKillMidShardBitIdentical(t *testing.T) {
	t.Setenv(jobs.LeaseTTLEnv, "750ms")
	r, addr := startCoordinator(t, 1)

	// The victim starts alone so its parked lease long-poll wins work as
	// soon as the job is submitted; -delay-max keeps it inside a shard
	// long enough to be killed there.
	victim := spawnWorker(t, "-coordinator", addr, "-name", "victim", "-delay-max", "400ms")
	waitFor(t, "victim registration", 30*time.Second, func() bool {
		rs, _ := r.Remote()
		return rs.Workers == 1
	})
	// Wait for the victim's lease long-poll to park: grants go straight to
	// parked polls, so the first shard submitted is guaranteed to be the
	// victim's — otherwise a fast local pool could finish the whole job
	// before the victim's first lease request is served.
	waitFor(t, "victim idle poll", 30*time.Second, func() bool {
		rs, _ := r.Remote()
		return rs.Idle >= 1
	})

	spec := acceptanceSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim lease", 30*time.Second, func() bool {
		rs, _ := r.Remote()
		return rs.Leases >= 1
	})
	// SIGKILL mid-shard: no drain, no deregister — the lease must expire
	// and the shard be re-leased or run locally.
	victim.cmd.Process.Kill()
	victim.cmd.Wait()

	delayed := spawnWorker(t, "-coordinator", addr, "-name", "delayed", "-delay-max", "150ms")
	fast := spawnWorker(t, "-coordinator", addr, "-name", "fast")

	st = waitDone(t, r, st.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}

	// Bit-identity against an uninterrupted single-process run.
	ref := localReference(t, spec)
	if !reflect.DeepEqual(st.Points, ref.Points) {
		t.Errorf("fleet result diverged from local run:\n got %+v\nwant %+v", st.Points, ref.Points)
	}

	// Graceful drain of the survivors: SIGTERM, exit 0, deregistered.
	for _, w := range []*workerProc{delayed, fast} {
		if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []*workerProc{delayed, fast} {
		if err := w.cmd.Wait(); err != nil {
			t.Errorf("worker exit: %v\nstderr: %s", err, w.stderr.String())
		}
		if !strings.Contains(w.stdout.String(), "shards completed") {
			t.Errorf("worker drain summary missing:\nstdout: %s", w.stdout.String())
		}
	}
	waitFor(t, "survivors deregistered", 30*time.Second, func() bool {
		rs, _ := r.Remote()
		return rs.Workers == 0
	})

	// Telemetry envelope: the remote families are registered, exposition
	// is lint-clean, and the lease counters saw the chaos.
	reg := telemetry.New()
	r.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("metrics lint: %v", err)
	}
	for _, fam := range []string{
		"dftsp_remote_workers",
		"dftsp_remote_leases_total",
		"dftsp_remote_leases_outstanding",
		"dftsp_remote_stale_completions_total",
		"dftsp_remote_shard_seconds",
	} {
		if !strings.Contains(buf.String(), fam) {
			t.Errorf("metrics exposition missing family %s", fam)
		}
	}
}

// localReference runs the spec on a plain runner with no remote listener.
func localReference(t *testing.T, spec jobs.Spec) jobs.Status {
	t.Helper()
	st, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := jobs.NewRunner(st, resolver(t), 3, "")
	defer r.Close(context.Background())
	s, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	s = waitDone(t, r, s.ID)
	if s.State != jobs.StateDone {
		t.Fatalf("reference job state %q (err %q)", s.State, s.Error)
	}
	return s
}

// TestWorkerGracefulSIGTERMIdle pins the idle drain path: a worker with no
// held shards exits 0 on SIGTERM and deregisters from the coordinator.
func TestWorkerGracefulSIGTERMIdle(t *testing.T) {
	r, addr := startCoordinator(t, 1)
	w := spawnWorker(t, "-coordinator", addr, "-name", "drain", "-lease-wait", "200ms")
	waitFor(t, "registration", 30*time.Second, func() bool {
		rs, _ := r.Remote()
		return rs.Workers == 1
	})
	if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := w.cmd.Wait(); err != nil {
		t.Fatalf("worker exit: %v\nstderr: %s", err, w.stderr.String())
	}
	if !strings.Contains(w.stdout.String(), "worker drain: 0 shards completed") {
		t.Errorf("drain summary missing:\nstdout: %s", w.stdout.String())
	}
	waitFor(t, "deregistration", 30*time.Second, func() bool {
		rs, _ := r.Remote()
		return rs.Workers == 0
	})
}

// TestWorkerSignalDuringRegister pins the exit of a worker whose shutdown
// signal lands while its registration is in flight: the coordinator has
// recorded the registration but holds the reply, and run must drain to 0.
func TestWorkerSignalDuringRegister(t *testing.T) {
	registered, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if path.Base(r.URL.Path) != "register" {
			http.Error(w, "unexpected call", http.StatusBadRequest)
			return
		}
		close(registered)
		<-release
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	var stdout bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-coordinator", srv.Listener.Addr().String(), "-name", "lost"}, &stdout, io.Discard)
	}()
	<-registered
	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("signal during register: exit %d, want 0", code)
	}
	if !strings.Contains(stdout.String(), "worker lost: 0 shards completed") {
		t.Errorf("drain summary missing:\nstdout: %s", stdout.String())
	}
}

// TestWorkerFlagErrors pins the CLI contract without spawning processes.
func TestWorkerFlagErrors(t *testing.T) {
	if code := run(context.Background(), nil, io.Discard, io.Discard); code != 2 {
		t.Errorf("no -coordinator: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-bogus"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if code := run(ctx, []string{"-coordinator", "127.0.0.1:1"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("unreachable coordinator: exit %d, want 1", code)
	}
}
