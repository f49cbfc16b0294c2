package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/dftsp"
	"repro/internal/code"
)

// env is the benchmark's working state inside one checkout: the binaries
// built from its sources, the precomputed protocol store every warm
// workload boots over, and the scratch directory of the current run.
type env struct {
	work    string // .bench_build in the checkout
	bin     string // built cmd/server, cmd/worker, cmd/precompute
	fixture string // precomputed protocol store (read-only once built)
	run     string // this run's scratch directory
}

// findRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && moduleName(data) == "repro" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module repro in the working directory or above; run from a checkout")
		}
		dir = parent
	}
}

func moduleName(gomod []byte) string {
	sc := bufio.NewScanner(strings.NewReader(string(gomod)))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// setup builds the binaries from the checkout's sources and makes sure the
// fixture store for set exists, then creates a fresh run directory. The
// fixture is built once per checkout and set (its directory is named by a
// hash of the precompute binary and the option sets) and never written
// afterwards: every server mounts it read-only.
func setup(ctx context.Context, root, workload string, set workloadSet) (*env, error) {
	e := &env{work: filepath.Join(root, ".bench_build")}
	e.bin = filepath.Join(e.work, "bin")
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/server", "./cmd/worker", "./cmd/precompute")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the binaries: %v\n%s", err, out)
	}
	if err := e.buildFixture(ctx, set.options); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.work, "run"), 0o755); err != nil {
		return nil, err
	}
	run, err := os.MkdirTemp(filepath.Join(e.work, "run"), workload+"-")
	if err != nil {
		return nil, err
	}
	e.run = run
	return e, nil
}

func (e *env) path(name string) string { return filepath.Join(e.bin, name) }

// buildFixture precomputes the protocol store of options with cmd/precompute
// unless this checkout already holds it.
func (e *env) buildFixture(ctx context.Context, options []dftsp.Options) error {
	data, err := os.ReadFile(e.path("precompute"))
	if err != nil {
		return err
	}
	h := sha256.New()
	h.Write(data)
	for _, o := range options {
		fmt.Fprintf(h, "|%s", label(o))
	}
	e.fixture = filepath.Join(e.work, "fixture", hex.EncodeToString(h.Sum(nil))[:16])
	if _, err := os.Stat(e.fixture); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(e.fixture), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(e.fixture), "building-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) // a no-op after the rename; a partial store after a failure
	// precompute applies one -prep/-verif variant per invocation; -codes
	// takes slugs, since "[[11,1,3]]" contains the list separator.
	variants := map[[2]string][]string{}
	var order [][2]string
	for _, o := range options {
		v := [2]string{o.Prep, o.Verif}
		if _, ok := variants[v]; !ok {
			order = append(order, v)
		}
		variants[v] = append(variants[v], code.Slug(o.Code))
	}
	for _, v := range order {
		args := []string{"-store-dir", tmp, "-codes", strings.Join(variants[v], ",")}
		if v[0] != "" {
			args = append(args, "-prep", v[0])
		}
		if v[1] != "" {
			args = append(args, "-verif", v[1])
		}
		cmd := exec.CommandContext(ctx, e.path("precompute"), args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("precomputing the fixture store: %v\n%s", err, out)
		}
	}
	if err := os.Rename(tmp, e.fixture); err != nil {
		if _, serr := os.Stat(e.fixture); serr == nil {
			return nil // another run in this checkout built it first
		}
		return err
	}
	return nil
}

// dir returns a fresh directory under the run directory.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.run, prefix+"-")
}

// proc is a child process of the benchmark. Every proc is stopped and
// waited for before the run ends.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	log  *os.File
}

// startProc starts bin with args, its output going to logPath. The child
// is killed if the benchmark dies without stopping it.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), log: lf}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop reads the process's peak resident set size in MB, then asks it to
// drain (SIGTERM) and kills it if it has not exited after grace. The peak
// is VmHWM of the running process: the ru_maxrss a parent reads after the
// exit also counts the parent's own peak, which the child inherits when it
// is spawned.
func (p *proc) stop(grace time.Duration) (peakMB float64, err error) {
	defer p.log.Close()
	peakMB, err = p.peakMB()
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // it may exit on its own meanwhile
		select {
		case <-p.done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill()
			<-p.done
			err = fmt.Errorf("%s did not drain within %s", filepath.Base(p.cmd.Path), grace)
		}
	}
	if err == nil && !p.cmd.ProcessState.Success() {
		err = fmt.Errorf("%s exited with %v", filepath.Base(p.cmd.Path), p.cmd.ProcessState)
	}
	return peakMB, err
}

// peakMB reads VmHWM, the peak resident set size, of the running process.
func (p *proc) peakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", filepath.Base(p.cmd.Path), err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("%s: VmHWM %q: %w", filepath.Base(p.cmd.Path), v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", filepath.Base(p.cmd.Path))
}

// freePorts returns n distinct loopback addresses with ports the kernel
// just had free. All n are held open together, so no two can coincide.
func freePorts(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// server is one booted cmd/server, plus its worker on jobs-fleet.
type server struct {
	proc   *proc
	worker *proc
	base   string // http://host:port
}

// bootSpec says how to boot the server of a workload.
type bootSpec struct {
	args       []string // server flags besides -addr
	withWorker bool     // start one cmd/worker and wait for it to register
}

// probeClient polls readiness over kept-alive connections, so polling
// costs the booting server as little as possible.
var probeClient = &http.Client{Timeout: time.Second}

// boot starts a server and returns it once /readyz answers 200 (and, with a
// worker, once the worker has registered), with the time that took from
// spawning the server: the set-up time a user of the binary waits for.
func (e *env) boot(ctx context.Context, spec bootSpec) (*server, time.Duration, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, 0, err
	}
	addr, workersAddr := ports[0], ports[1]
	args := append([]string{"-addr", addr}, spec.args...)
	if spec.withWorker {
		args = append(args, "-workers-addr", workersAddr)
	}
	logDir, err := e.dir("server")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	p, err := startProc(e.path("server"), args, filepath.Join(logDir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	s := &server{proc: p, base: "http://" + addr}
	if err := s.waitReady(ctx, p, func(body string) bool { return true }); err != nil {
		s.stop()
		return nil, 0, err
	}
	if spec.withWorker {
		w, err := startProc(e.path("worker"), []string{"-coordinator", workersAddr, "-store", e.fixture, "-parallel", "1"},
			filepath.Join(logDir, "worker.log"))
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.worker = w
		if err := s.waitReady(ctx, w, func(body string) bool { return strings.Contains(body, `"workers":1`) }); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// waitReady polls /readyz until it answers 200 with a body ok accepts, or
// fails once p exits or 60 s pass.
func (s *server) waitReady(ctx context.Context, p *proc, ok func(body string) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if resp, err := probeClient.Get(s.base + "/readyz"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(string(body)) {
				return nil
			}
		}
		switch {
		case p.exited():
			return fmt.Errorf("%s exited during boot (log: %s)", filepath.Base(p.cmd.Path), p.log.Name())
		case ctx.Err() != nil:
			return ctx.Err()
		case time.Now().After(deadline):
			return fmt.Errorf("server not ready after 60 s (log: %s)", p.log.Name())
		}
		// A boot takes a few milliseconds, and time.Sleep rounds a short
		// sleep up to about a millisecond here; nanosleep waits 100 µs.
		_ = syscall.Nanosleep(&syscall.Timespec{Nsec: 100_000}, nil) // EINTR only shortens the wait
	}
}

// stop drains the worker, then the server, and returns the server's peak
// RSS and the worker's (0 without one).
func (s *server) stop() (serverMB, workerMB float64, err error) {
	if s.worker != nil {
		workerMB, err = s.worker.stop(20 * time.Second)
	}
	serverMB, serr := s.proc.stop(30 * time.Second)
	return serverMB, workerMB, errors.Join(err, serr)
}
