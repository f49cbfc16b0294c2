package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/shardrpc"
	"repro/internal/sim"
)

// remoteRunner builds a runner with an active workers listener on a
// loopback port and returns it with the listener's bound address.
func remoteRunner(t *testing.T, workers int) (*Runner, string) {
	t.Helper()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), workers, "127.0.0.1:0")
	if err := r.StartRemote(nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close(context.Background()) })
	rs, ok := r.Remote()
	if !ok {
		t.Fatal("remote listener not active")
	}
	return r, rs.Addr
}

// waitIdle blocks until the coordinator reports at least n parked lease
// long-polls. Grants go straight to parked polls, so a Submit that follows
// is guaranteed to hand its first shard to a remote worker instead of
// racing one whose lease request has not arrived yet — without this, a
// fast machine can finish the whole job before the worker's first HTTP
// request is even served.
func waitIdle(t *testing.T, r *Runner, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if rs, ok := r.Remote(); ok && rs.Idle >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d idle remote lease polls", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// remoteSpec is the fixed-budget spec the remote tests execute: 2 points,
// 2 rounds + a truncated tail block each.
func remoteSpec() Spec {
	return Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     (sim.BlocksPerRound + 4) * sim.BlockShots,
		Seed:        13,
	}
}

// TestDelegationNoRemote pins the path without a listener: an empty
// remoteAddr means no workers listener and no Remote status, and every
// shard runs on the local pool through the in-process lease coordinator,
// bit-identical to the single-process reference.
func TestDelegationNoRemote(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if err := r.StartRemote(nil); err != nil {
		t.Fatalf("StartRemote with empty addr: %v", err)
	}
	if _, ok := r.Remote(); ok {
		t.Fatal("Remote() active without a workers address")
	}
	spec := remoteSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	if st.Remote != nil {
		t.Fatalf("status.Remote = %+v without remote dispatch", st.Remote)
	}
	for i := range spec.Rates {
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], singleProcessPoint(t, spec, i))
	}
}

// TestRemoteZeroWorkersDelegatesLocal pins graceful degradation with the
// listener up: zero connected workers means the local pool claims every
// shard and the job finishes bit-identical to the single-process run.
func TestRemoteZeroWorkersDelegatesLocal(t *testing.T) {
	r, _ := remoteRunner(t, 2)
	spec := remoteSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	if st.Remote == nil || st.Remote.Workers != 0 || st.Remote.Leases != 0 {
		t.Fatalf("status.Remote = %+v, want zero workers and leases", st.Remote)
	}
	for i := range spec.Rates {
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], singleProcessPoint(t, spec, i))
	}
}

// fakeWorker executes leases in-process through the real client and HTTP
// listener, with its own estimator — the minimal faithful worker.
type fakeWorker struct {
	t      *testing.T
	client *shardrpc.Client
	est    *sim.Estimator
}

func newFakeWorker(t *testing.T, addr, name string) *fakeWorker {
	t.Helper()
	cl := shardrpc.NewClient(shardrpc.ClientConfig{BaseURL: addr, Name: name,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond, Seed: 1})
	if err := cl.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	return &fakeWorker{t: t, client: cl, est: sim.NewEstimator(steaneProto(t))}
}

// runTask executes one leased task exactly as cmd/worker does.
func (w *fakeWorker) runTask(task shardrpc.Task) sim.Counts {
	w.t.Helper()
	eng, err := sim.ParseEngine(task.Engine)
	if err != nil {
		w.t.Fatal(err)
	}
	if eng != sim.EngineAuto {
		if err := w.est.SetEngine(eng); err != nil {
			w.t.Fatal(err)
		}
	}
	method, err := sim.ParseMethod(task.Method)
	if err != nil {
		w.t.Fatal(err)
	}
	br, err := w.est.NewBlockRunnerModel(method, task.Model)
	if err != nil {
		w.t.Fatal(err)
	}
	for b := task.Block0; b < task.Block1; b++ {
		br.RunBlock(context.Background(), task.Seed, b, task.BlockShots(b))
	}
	return br.Counts()
}

// serve leases and completes tasks until ctx cancels.
func (w *fakeWorker) serve(ctx context.Context) {
	for ctx.Err() == nil {
		lease, err := w.client.Lease(ctx, 200*time.Millisecond)
		if err != nil || lease == nil {
			continue
		}
		w.client.Complete(ctx, lease, w.runTask(lease.Task))
	}
}

// TestRemoteWorkerMatchesSingleProcess runs a job with a live remote
// worker racing the local pool and requires the pooled result to stay
// bit-identical to the uninterrupted single-process reference.
func TestRemoteWorkerMatchesSingleProcess(t *testing.T) {
	r, addr := remoteRunner(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newFakeWorker(t, addr, "fake-1")
	go w.serve(ctx)
	waitIdle(t, r, 1)

	spec := remoteSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	for i := range spec.Rates {
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], singleProcessPoint(t, spec, i))
	}
}

// TestZombieCompletionNeverDoubleCounts leases a shard to a worker that
// stalls past its TTL, lets the local pool finish the job, and then has
// the zombie report its counts: the completion must be fenced off and the
// job's pooled counts must remain bit-identical to the reference.
func TestZombieCompletionNeverDoubleCounts(t *testing.T) {
	t.Setenv(LeaseTTLEnv, "200ms")
	r, addr := remoteRunner(t, 2)
	zombie := newFakeWorker(t, addr, "zombie")

	// Park one long lease poll and wait for the coordinator to see it:
	// the first shard offered is then granted straight to the zombie.
	leased := make(chan *shardrpc.Lease, 1)
	go func() {
		lease, err := zombie.client.Lease(context.Background(), 10*time.Second)
		if err != nil {
			leased <- nil
			return
		}
		leased <- lease
	}()
	waitIdle(t, r, 1)

	spec := remoteSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var lease *shardrpc.Lease
	select {
	case lease = <-leased:
	case <-time.After(30 * time.Second):
		t.Fatal("zombie never saw a lease offer")
	}
	if lease == nil {
		t.Fatal("zombie never obtained a lease")
	}

	// The zombie sits on the lease without heartbeating; the lease expires
	// and the local pool steals the shard, finishing the job.
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}

	// Now the zombie wakes up and reports the shard it sampled long ago.
	counts := zombie.runTask(lease.Task)
	if _, err := zombie.client.Complete(context.Background(), lease, counts); !errors.Is(err, shardrpc.ErrStaleCompletion) {
		t.Fatalf("zombie completion: err = %v, want ErrStaleCompletion", err)
	}

	// The reported statistics never saw the double count.
	for i := range spec.Rates {
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], singleProcessPoint(t, spec, i))
	}
}

// TestCloseQuiescesWithLeaseOutstanding is the graceful-drain satellite: a
// worker dies holding a lease mid-job, Close is invoked with the lease
// outstanding, and the runner must still quiesce — the expired lease falls
// back to the local pool, the round reaches its checkpoint boundary, the
// job pauses resumable, and a fresh runner finishes it bit-identical.
func TestCloseQuiescesWithLeaseOutstanding(t *testing.T) {
	t.Setenv(LeaseTTLEnv, "200ms")
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), 1, "127.0.0.1:0")
	if err := r.StartRemote(nil); err != nil {
		t.Fatal(err)
	}
	rs, _ := r.Remote()

	dead := newFakeWorker(t, rs.Addr, "dead")
	leased := make(chan *shardrpc.Lease, 1)
	go func() {
		lease, err := dead.client.Lease(context.Background(), 10*time.Second)
		if err != nil {
			leased <- nil
			return
		}
		leased <- lease
	}()
	waitIdle(t, r, 1)

	// Several rounds of budget, so quiescing mid-execution leaves work.
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2},
		MCShots:     4 * sim.BlocksPerRound * sim.BlockShots,
		Seed:        17,
	}
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case lease := <-leased:
		if lease == nil {
			t.Fatal("worker never obtained a lease")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never saw a lease offer")
	}
	// The worker is now dead (never heartbeats, never completes). Close
	// with its lease outstanding: the lease expires, the local pool runs
	// the shard, and the job quiesces at the round boundary.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, err = r.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePaused && st.State != StateDone {
		t.Fatalf("job state %q (err %q) after quiesce", st.State, st.Error)
	}
	if st.State == StateDone {
		t.Log("job finished before quiesce; resumability still checked below")
	}

	// Resume on a fresh runner (no remote) and require bit-identity.
	r2 := NewRunner(store, steaneResolver(t), 2, "")
	defer r2.Close(context.Background())
	st2, err := r2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitTerminal(t, r2, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("resumed job state %q (err %q)", st2.State, st2.Error)
	}
	checkPointMatches(t, "resumed point", st2.Points[0], singleProcessPoint(t, spec, 0))
}
