package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/shardrpc"
	"repro/internal/sim"
)

// testProtocolKey is the protocol key the test resolver serves.
const testProtocolKey = "steane-test-protocol"

var (
	protoOnce sync.Once
	proto     *core.Protocol
	protoErr  error
)

// steaneProto builds (once) the Steane protocol all runner tests sample.
func steaneProto(t *testing.T) *core.Protocol {
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

// steaneResolver resolves testProtocolKey to one Steane estimator, shared
// by every job the runner starts.
func steaneResolver(t *testing.T) Resolver {
	est := sim.NewEstimator(steaneProto(t))
	return func(ctx context.Context, key string) (*sim.Estimator, error) {
		if key != testProtocolKey {
			return nil, fmt.Errorf("unknown protocol %q", key)
		}
		return est, nil
	}
}

// singleProcessPoint computes the expected result of one job point with
// the plain in-process adaptive estimator under the spec's noise model —
// the reference every sharded, checkpointed, resumed execution must match
// bit-for-bit.
func singleProcessPoint(t *testing.T, spec Spec, point int) sim.AdaptiveResult {
	t.Helper()
	spec = spec.Normalized()
	eng, _ := sim.ParseEngine(spec.Engine)
	est, err := sim.NewEstimator(steaneProto(t)).WithEngine(eng)
	if err != nil {
		t.Fatal(err)
	}
	method, _ := sim.ParseMethod(spec.Method)
	target, budget := spec.Budget()
	ar, err := est.AdaptiveModel(context.Background(), method, spec.Model(spec.Rates[point]), target, budget,
		sim.PointSeed(spec.Seed, point), 3)
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// checkPointMatches requires bit-identity between a job point and the
// single-process reference on every statistical field.
func checkPointMatches(t *testing.T, label string, pt PointStatus, want sim.AdaptiveResult) {
	t.Helper()
	if !pt.Done {
		t.Errorf("%s: point not done: %+v", label, pt)
		return
	}
	if pt.Shots != int64(want.Shots) || pt.Fails != int64(want.Fails) {
		t.Errorf("%s: counts (%d,%d), want (%d,%d)", label, pt.Shots, pt.Fails, want.Shots, want.Fails)
	}
	if pt.PL != want.PL || pt.RSE != want.RSE || pt.CILo != want.CILo || pt.CIHi != want.CIHi {
		t.Errorf("%s: stats (pl=%g rse=%g ci=[%g,%g]), want (pl=%g rse=%g ci=[%g,%g])",
			label, pt.PL, pt.RSE, pt.CILo, pt.CIHi, want.PL, want.RSE, want.CILo, want.CIHi)
	}
	if pt.Method != want.Method.String() || pt.CondP != want.CondP ||
		pt.EffSamples != want.EffectiveSamples || pt.WeightVar != want.WeightVariance {
		t.Errorf("%s: diagnostics (%s condP=%g eff=%g var=%g), want (%s condP=%g eff=%g var=%g)",
			label, pt.Method, pt.CondP, pt.EffSamples, pt.WeightVar,
			want.Method, want.CondP, want.EffectiveSamples, want.WeightVariance)
	}
	// min_faults is reported when it is 2 and omitted when it is 1.
	if wantK := want.MinFaults; pt.MinFaults != wantK && !(wantK == 1 && pt.MinFaults == 0) {
		t.Errorf("%s: min_faults %d, want %d", label, pt.MinFaults, wantK)
	}
}

// waitTerminal polls until the job leaves StateRunning.
func waitTerminal(t *testing.T, r *Runner, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := r.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return Status{}
}

// TestJobMatchesSingleProcess is the core acceptance invariant on both
// engines and both methods: a job executed as checkpointed shards on the
// worker pool reproduces the single-process adaptive estimate bit for bit.
func TestJobMatchesSingleProcess(t *testing.T) {
	for _, engine := range []string{"batch", "scalar"} {
		for _, method := range []string{"direct", "rare"} {
			t.Run(engine+"/"+method, func(t *testing.T) {
				spec := Spec{
					ProtocolKey: testProtocolKey,
					Method:      method,
					Engine:      engine,
					Rates:       []float64{3e-3, 3e-2},
					MCShots:     3*sim.BlockShots + 1000, // clamps the final block
					Seed:        7,
				}
				store, err := Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				r := NewRunner(store, steaneResolver(t), 3, "")
				defer r.Close(context.Background())
				st, err := r.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				st = waitTerminal(t, r, st.ID)
				if st.State != StateDone {
					t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
				}
				for i := range spec.Rates {
					want := singleProcessPoint(t, spec, i)
					checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
				}
				// The durable state agrees with the reported one.
				disk, err := store.Load(st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !disk.Done {
					t.Error("done job not marked done on disk")
				}
			})
		}
	}
}

// TestAdaptiveJobMatchesSingleProcess covers the adaptive stopping rule:
// the sharded coordinator must stop at exactly the same round boundary as
// the in-process estimator, on auto method resolution.
func TestAdaptiveJobMatchesSingleProcess(t *testing.T) {
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Rates:       []float64{4e-3, 4e-2},
		TargetRSE:   0.2,
		MaxShots:    70 * sim.BlockShots, // several rounds available
		Seed:        11,
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), 4, "")
	defer r.Close(context.Background())
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
	}
}

// TestAutoJobIgnoresEngineEnv pins that an "auto" job's stream depends on
// its spec alone: the engine is part of the job ID, so a process
// environment that names an engine (the retired DFTSP_ENGINE override)
// must not move an auto job's counts off the ones it samples elsewhere.
func TestAutoJobIgnoresEngineEnv(t *testing.T) {
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2},
		MCShots:     4 * sim.BlockShots,
		Seed:        5,
	}
	run := func() PointStatus {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(store, steaneResolver(t), 2, "")
		defer r.Close(context.Background())
		st, err := r.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st = waitTerminal(t, r, st.ID)
		if st.State != StateDone {
			t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
		}
		return st.Points[0]
	}
	want := run()
	t.Setenv("DFTSP_ENGINE", "scalar")
	got := run()
	if got.Shots != want.Shots || got.Fails != want.Fails || got.PL != want.PL {
		t.Errorf("auto job under DFTSP_ENGINE=scalar: (%d shots, %d fails), want (%d, %d)",
			got.Shots, got.Fails, want.Shots, want.Fails)
	}
}

// prepPartial writes a job file holding the point-start record and the
// first `shards` shard checkpoints of point 0, computed with the same
// block runners the coordinator uses (plus an optional fail-count bias to
// make checkpoint reuse observable). It returns the job ID.
func prepPartial(t *testing.T, store *Store, spec Spec, shards int, bias int64) string {
	return prepShards(t, store, spec, shards, bias, true)
}

// prepShards is prepPartial with the point's stream tag optional: an
// untagged start record is what a build that predates stream versions
// wrote.
func prepShards(t *testing.T, store *Store, spec Spec, shards int, bias int64, tagged bool) string {
	t.Helper()
	spec = spec.Normalized()
	lg, _, err := store.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	est := sim.NewEstimator(steaneProto(t))
	ps := PointState{Point: 0, Rate: spec.Rates[0], Method: "direct"}
	if tagged {
		ps.Stream = est.Stream()
	}
	if err := lg.Append(Record{Kind: "point", Point: 0, State: &ps}); err != nil {
		t.Fatal(err)
	}
	_, budget := spec.Budget()
	for sh := 0; sh < shards; sh++ {
		b0 := sh * ShardBlocks
		task := shardrpc.Task{
			Engine: est.EngineInUse().String(), Method: "direct", Model: spec.Model(spec.Rates[0]),
			Seed: sim.PointSeed(spec.Seed, 0), Block0: b0, Block1: min(b0+ShardBlocks, sim.NumBlocks(budget)), Budget: budget,
		}
		c, err := task.Run(context.Background(), est)
		if err != nil {
			t.Fatal(err)
		}
		c.Fails += bias
		if err := lg.Append(Record{Kind: "shard", Point: 0, Round: 0, Shard: sh, Counts: &c}); err != nil {
			t.Fatal(err)
		}
	}
	return spec.ID()
}

// partialSpec is the fixed-budget direct spec the prepared-checkpoint
// tests resume: 2 points, 12 blocks each (one round, 2 shards).
func partialSpec() Spec {
	return Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     12 * sim.BlockShots,
		Seed:        7,
	}
}

// TestResumeFromCheckpointMatches resumes a job whose first shard is
// already durable and requires the finished job to be bit-identical to an
// uninterrupted single-process run.
func TestResumeFromCheckpointMatches(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepPartial(t, store, spec, 1, 0)

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
	}
}

// TestResumeTrustsCheckpoints proves resumed shards are not re-executed:
// a deliberately biased durable shard count flows through to the final
// pooled result unchanged — exactly +bias fails on the same shots.
func TestResumeTrustsCheckpoints(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	const bias = 1000
	id := prepPartial(t, store, spec, 1, bias)

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	want := singleProcessPoint(t, spec, 0)
	pt := st.Points[0]
	if pt.Shots != int64(want.Shots) || pt.Fails != int64(want.Fails)+bias {
		t.Errorf("point 0 counts (%d,%d), want (%d,%d): checkpointed shard was re-executed",
			pt.Shots, pt.Fails, want.Shots, int64(want.Fails)+bias)
	}
}

// TestResumeRestartsUntaggedStream resumes a job whose unfinished batch
// point carries no stream tag, as a build that drew the batch stream
// before it was versioned wrote it, with a deliberately biased durable
// shard. The point must restart from shard 0 under the same job ID — the
// bias does not reach its result — finish bit-identical to a
// single-process run, and leave a log whose replay holds only the
// restarted point's shards, tagged with this build's stream.
func TestResumeRestartsUntaggedStream(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepShards(t, store, spec, 1, 1000, false)
	if before, err := store.Load(id); err != nil || before.Points[0].Stream != 0 || len(before.Shards) != 1 {
		t.Fatalf("prepared log: %+v, %v; want one shard of an untagged point", before, err)
	}

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != id {
		t.Fatalf("resubmitted job has ID %q, want %q", st.ID, id)
	}
	st = waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], singleProcessPoint(t, spec, i))
	}

	disk, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	var parts []sim.Counts
	for k, c := range disk.Shards {
		if k.Point == 0 {
			parts = append(parts, c)
		}
	}
	p0 := disk.Points[0]
	if p0.Stream != sim.BatchStream || !p0.Done {
		t.Fatalf("durable point 0 %+v: want done on stream %d", p0, sim.BatchStream)
	}
	if !reflect.DeepEqual(sim.PoolCounts(parts...), p0.Counts) {
		t.Fatalf("replayed shards of point 0 pool to %+v, the point finished with %+v", sim.PoolCounts(parts...), p0.Counts)
	}
}

// TestResumeFromCorruptTail kills the log mid-record: resume must fall
// back to the last good shard, redo only what was never durable, and still
// land bit-identical to a single-process run.
func TestResumeFromCorruptTail(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepPartial(t, store, spec, 2, 0)

	// Tear the final record in half, as a crash mid-append would.
	path := filepath.Join(store.Dir(), Filename(id))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(before.Shards); got != 1 {
		t.Fatalf("torn log folded %d shards, want 1", got)
	}

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
	}
}

// TestCancelThenResume cancels a running job, checks its durable progress
// survives, resubmits, and requires the final result to be bit-identical.
func TestCancelThenResume(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Engine:      "scalar", // slow enough that the cancel lands mid-run
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     40 * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())

	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, stop, err := r.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for e := range ev {
		if e.Type == "shard" {
			break
		}
	}
	stop()
	if err := r.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = r.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled && st.State != StateDone {
		t.Fatalf("after cancel: state %q", st.State)
	}

	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, r, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", final.State, final.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), final.Points[i], want)
	}
}

// TestGracefulCloseCheckpointsAndResumes quiesces a runner mid-job: the
// in-flight shards must be checkpointed, the job left paused, and a fresh
// runner must resume it to the bit-identical result.
func TestGracefulCloseCheckpointsAndResumes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Engine:      "scalar",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     40 * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, stop, err := r.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for e := range ev {
		if e.Type == "shard" {
			break
		}
	}
	stop()
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err = r.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePaused && st.State != StateDone {
		t.Fatalf("after graceful close: state %q", st.State)
	}
	disk, err := store.Load(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Records == 0 {
		t.Fatal("graceful close left no durable checkpoints")
	}
	if _, err := r.Submit(spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}

	r2 := NewRunner(store, steaneResolver(t), 2, "")
	defer r2.Close(context.Background())
	if _, err := r2.Submit(spec); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, r2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", final.State, final.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), final.Points[i], want)
	}
}

// TestSubmitCoalesces checks submit-or-attach: equal specs (even with
// defaults spelled differently) share one execution, and resubmitting a
// finished job returns its stored result without running anything.
func TestSubmitCoalesces(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2},
		MCShots:     2 * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())

	st1, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	alias := spec
	alias.Engine = "auto" // spelled-out default: same job
	st2, err := r.Submit(alias)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("equal specs got different jobs: %s vs %s", st1.ID, st2.ID)
	}
	final := waitTerminal(t, r, st1.ID)
	if final.State != StateDone {
		t.Fatalf("job state %q, want done", final.State)
	}
	again, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Points[0] != final.Points[0] {
		t.Fatalf("resubmit of done job: %+v, want stored result %+v", again, final)
	}
}

// TestWatchStreamsEvents pins the event feed shape: started first, shard
// progress, a point event per finished point with its statistics, and a
// terminal done event before the channel closes.
func TestWatchStreamsEvents(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Gate the resolver so the subscription is attached before any event
	// fires.
	gate := make(chan struct{})
	base := steaneResolver(t)
	resolver := func(ctx context.Context, key string) (*sim.Estimator, error) {
		<-gate
		return base(ctx, key)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     10 * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, resolver, 2, "")
	defer r.Close(context.Background())
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, stop, err := r.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	close(gate)

	seen := map[string]int{}
	var pointEvents []Event
	for e := range ev {
		if e.Job != st.ID {
			t.Fatalf("event for wrong job: %+v", e)
		}
		seen[e.Type]++
		if e.Type == "point" {
			pointEvents = append(pointEvents, e)
		}
	}
	if seen["started"] != 1 || seen["done"] != 1 {
		t.Errorf("event counts %v, want exactly one started and one done", seen)
	}
	if seen["shard"] == 0 {
		t.Errorf("no shard progress events: %v", seen)
	}
	if len(pointEvents) != len(spec.Rates) {
		t.Fatalf("%d point events, want %d", len(pointEvents), len(spec.Rates))
	}
	for _, e := range pointEvents {
		if e.Result == nil || !e.Result.Done || e.Result.Shots == 0 {
			t.Errorf("point event without finished result: %+v", e)
		}
	}
}

// TestResolverFailure marks the job failed (with the cause) and leaves it
// resumable.
func TestResolverFailure(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(ctx context.Context, key string) (*sim.Estimator, error) {
		return nil, fmt.Errorf("protocol backend down")
	}
	r := NewRunner(store, resolver, 2, "")
	defer r.Close(context.Background())
	spec := testSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("job state %q (err %q), want failed with cause", st.State, st.Error)
	}
	// The job is still on disk and a later submit retries it.
	if _, err := store.Load(st.ID); err != nil {
		t.Fatalf("failed job vanished from disk: %v", err)
	}
	if _, err := r.Submit(spec); err != nil {
		t.Fatalf("retry submit: %v", err)
	}
	waitTerminal(t, r, st.ID)
}

// TestResumeAll boots a fresh runner over a store holding one unfinished
// job and requires it to be picked up and finished.
func TestResumeAll(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepPartial(t, store, spec, 1, 0)

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	resumed, err := r.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID != id {
		t.Fatalf("ResumeAll = %+v, want the one unfinished job", resumed)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", st.State, st.Error)
	}
	// A second sweep has nothing to do: the job is done on disk.
	resumed, err = r.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Fatalf("second ResumeAll resumed %d jobs, want 0", len(resumed))
	}
}

// TestRareOldPointResumesK1 resumes a rare job whose first point was
// started in the format written before k = 2 existed — no min_faults, one
// k = 1 shard durable — and requires that point to finish as k = 1, bit
// for bit the k = 1 stream over every block, while the job's new point
// resolves to k = 2 and records its conditioning and weight durably.
func TestRareOldPointResumesK1(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "rare",
		Rates:       []float64{2e-3, 1e-3},
		MCShots:     24 * sim.BlockShots, // three shards: two run concurrently on resume
		Seed:        5,
	}.Normalized()
	est := sim.NewEstimator(steaneProto(t))
	counts := est.ClassCounts()
	_, budget := spec.Budget()
	model := spec.Model(spec.Rates[0])
	seed := sim.PointSeed(spec.Seed, 0)

	lg, _, err := store.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ps := PointState{Point: 0, Rate: spec.Rates[0], Method: "rare", Locations: counts[0] + counts[1] + counts[2]}
	if err := lg.Append(Record{Kind: "point", Point: 0, State: &ps}); err != nil {
		t.Fatal(err)
	}
	old := shardrpc.Task{Engine: est.EngineInUse().String(), Method: "rare", Model: model, Seed: seed,
		Block0: 0, Block1: ShardBlocks, Budget: budget}
	c, err := old.Run(context.Background(), est)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(Record{Kind: "shard", Point: 0, Round: 0, Shard: 0, Counts: &c}); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	// The k = 1 reference: every block of point 0 on one k = 1 runner.
	k1 := sim.Sampling{Method: sim.MethodRare, MinFaults: 1, CondP: noise.CondProbModel(model, counts)}
	br, err := est.NewBlockRunner(k1, model)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < sim.NumBlocks(budget); b++ {
		br.RunBlock(context.Background(), seed, b, sim.BlockLen(budget, b))
	}
	want, err := br.Counts().ResultModel(k1, model, counts)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, spec.ID())
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	checkPointMatches(t, "old point 0", st.Points[0], want)
	checkPointMatches(t, "new point 1", st.Points[1], singleProcessPoint(t, spec, 1))

	disk, err := store.Load(spec.ID())
	if err != nil {
		t.Fatal(err)
	}
	if p0, p1 := disk.Points[0], disk.Points[1]; p0.MinFaults != 0 || p0.CondP != 0 || p1.MinFaults != 2 ||
		p1.CondP != est.Singles().CondProb(spec.Model(spec.Rates[1])) {
		t.Fatalf("durable points %+v / %+v: want the old point unconditioned on k and the new one at k = 2 with its weight", p0, p1)
	}
}

// heldShard is one shard offered to a stubQueue: its task, and the
// function that settles it.
type heldShard struct {
	desc   shardrpc.Task
	settle func(counts sim.Counts, err error)
	run    func() (sim.Counts, error)
}

// release runs the shard and delivers its counts, unless the job's
// context already settled it.
func (h heldShard) release() { h.settle(h.run()) }

// stubQueue stands in for the runner's lease coordinator in the scheduling
// tests. Each Offer first calls check, when set, on the job's coordinator
// goroutine; an inline queue then runs and delivers the shard at once, any
// other queue hands it to the test on held, which decides when it runs.
// Like the coordinator, it delivers each shard exactly once, with the
// context's error if the context ends first.
type stubQueue struct {
	inline bool
	check  func(desc shardrpc.Task)
	held   chan heldShard
}

func (q *stubQueue) Offer(ctx context.Context, desc shardrpc.Task, run func() (sim.Counts, error), deliver func(sim.Counts, error)) {
	if q.check != nil {
		q.check(desc)
	}
	var once sync.Once
	settle := func(counts sim.Counts, err error) { once.Do(func() { deliver(counts, err) }) }
	context.AfterFunc(ctx, func() { settle(sim.Counts{}, ctx.Err()) })
	h := heldShard{desc: desc, settle: settle, run: run}
	if q.inline {
		h.release()
		return
	}
	q.held <- h
}

// stubRunner returns a runner over store whose coordinators offer their
// shards to q. Cleanup closes it hard, so a failed test that leaves shards
// held does not wait for them.
func stubRunner(t *testing.T, store *Store, q *stubQueue) *Runner {
	r := NewRunner(store, steaneResolver(t), 1, "")
	r.offers = q
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r.Close(ctx)
	})
	return r
}

// jobDone returns the channel closed when the running job id settles.
func jobDone(r *Runner, id string) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id].done
}

// nextHeld waits for the stub's next offered shard.
func nextHeld(t *testing.T, q *stubQueue) heldShard {
	t.Helper()
	select {
	case h := <-q.held:
		return h
	case <-time.After(time.Minute):
		t.Fatal("no shard offered within a minute")
		return heldShard{}
	}
}

// windowSpec is a fixed-budget direct spec of three rounds, twelve
// shards: more than one window.
func windowSpec() Spec {
	return Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2},
		MCShots:     3 * sim.BlocksPerRound * sim.BlockShots,
		Seed:        9,
	}
}

// TestFixedBudgetRunsAhead holds every offered shard until the test
// releases it. A fixed-budget point must fill its window before any shard
// is durable, so round 1 is offered while none of round 0's records is;
// every offer must find at most the window outstanding (offered and not
// durable on disk); shards released newest first commit out of order; and
// the point must finish bit-identical to a single-process run with every
// shard offered once.
func TestFixedBudgetRunsAhead(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := windowSpec()
	id := spec.Normalized().ID()
	numShards := sim.NumBlocks(spec.MCShots) / ShardBlocks

	var mu sync.Mutex
	offered := 0
	// held holds every shard of the job, so Offer never blocks even if the
	// window were not kept; check reports that instead.
	q := &stubQueue{held: make(chan heldShard, numShards)}
	q.check = func(desc shardrpc.Task) {
		disk, err := store.Load(id)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		offered++
		out := offered - len(disk.Shards)
		mu.Unlock()
		if out > window {
			t.Errorf("offered %s with %d shards outstanding, window %d", desc.ID, out, window)
		}
	}
	r := stubRunner(t, store, q)
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	done := jobDone(r, id)

	var held []heldShard
	rounds := map[int]int{}
	for len(held) < window {
		h := nextHeld(t, q)
		held = append(held, h)
		rounds[h.desc.Round]++
	}
	if rounds[1] == 0 {
		t.Fatalf("first window covers rounds %v, want round 1 offered before round 0 is durable", rounds)
	}
	if disk, err := store.Load(id); err != nil || len(disk.Shards) != 0 {
		t.Fatalf("before any delivery: %d shards durable (%v), want 0", len(disk.Shards), err)
	}

	// Take every new offer first, then release the newest held shard;
	// with nothing held, wait for an offer or for the job to settle.
loop:
	for {
		select {
		case h := <-q.held:
			held = append(held, h)
			continue
		default:
		}
		if n := len(held); n > 0 {
			held[n-1].release()
			held = held[:n-1]
			continue
		}
		select {
		case h := <-q.held:
			held = append(held, h)
		case <-done:
			break loop
		}
	}

	st, err := r.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	checkPointMatches(t, "point 0", st.Points[0], singleProcessPoint(t, spec, 0))
	mu.Lock()
	defer mu.Unlock()
	if offered != numShards {
		t.Errorf("%d offers for %d shards", offered, numShards)
	}
}

// TestAdaptivePointKeepsRoundBarrier runs an adaptive point whose stopping
// rule fires after several rounds on a queue that runs each shard as it is
// offered. No shard of round r may be offered before every shard of the
// rounds before it is durable, and the point must stop at the round the
// in-process estimator stops at, bit-identical to it.
func TestAdaptivePointKeepsRoundBarrier(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-3},
		TargetRSE:   0.05,
		MaxShots:    16 * sim.BlocksPerRound * sim.BlockShots,
		Seed:        5,
	}
	want := singleProcessPoint(t, spec, 0)
	const roundShots = sim.BlocksPerRound * sim.BlockShots
	if want.Shots <= roundShots || want.Shots >= spec.MaxShots {
		t.Fatalf("reference stops after %d shots; the test needs a stop after round 0 and before the budget", want.Shots)
	}
	id := spec.Normalized().ID()
	const perRound = sim.BlocksPerRound / ShardBlocks
	q := &stubQueue{inline: true}
	q.check = func(desc shardrpc.Task) {
		disk, err := store.Load(id)
		if err != nil {
			t.Error(err)
			return
		}
		before := 0
		for k := range disk.Shards {
			if k.Round < desc.Round {
				before++
			}
		}
		if before != desc.Round*perRound {
			t.Errorf("offered %s with %d shards of earlier rounds durable, want %d", desc.ID, before, desc.Round*perRound)
		}
	}
	r := stubRunner(t, store, q)
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	checkPointMatches(t, "point 0", st.Points[0], want)
}

// TestCloseDrainsWindow closes the runner while a fixed-budget point has a
// full window outstanding. Close must offer nothing more, checkpoint every
// outstanding shard as it finishes, and leave the job paused; a fresh
// runner must resume it to the bit-identical result.
func TestCloseDrainsWindow(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := windowSpec()
	id := spec.Normalized().ID()
	// held holds every shard of the job, so a wrong offer after Close
	// shows up in it rather than blocking.
	q := &stubQueue{held: make(chan heldShard, sim.NumBlocks(spec.MCShots)/ShardBlocks)}
	r := stubRunner(t, store, q)
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	var held []heldShard
	for len(held) < window {
		held = append(held, nextHeld(t, q))
	}

	closed := make(chan error, 1)
	go func() { closed <- r.Close(context.Background()) }()
	<-r.quiesce
	for k := len(held) - 1; k >= 0; k-- {
		held[k].release()
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := len(q.held); n != 0 {
		t.Fatalf("%d shards offered after Close", n)
	}
	st, err := r.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StatePaused {
		t.Fatalf("after Close: state %q, want paused", st.State)
	}
	disk, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk.Shards) != window {
		t.Fatalf("Close left %d shards durable, want the %d outstanding", len(disk.Shards), window)
	}

	r2 := NewRunner(store, steaneResolver(t), 2, "")
	defer r2.Close(context.Background())
	if _, err := r2.Submit(spec); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, r2, id)
	if final.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", final.State, final.Error)
	}
	checkPointMatches(t, "point 0", final.Points[0], singleProcessPoint(t, spec, 0))
}
