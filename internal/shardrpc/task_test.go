package shardrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
)

// tripCtx is a context whose Err reports nil for its first n calls and
// context.Canceled from then on, cancelling a run at an exact poll.
type tripCtx struct {
	context.Context
	n atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTaskRunCancelled requires a run cancelled before it starts, inside a
// block, between blocks or after the last block to return ctx.Err() and
// zero counts: a partial shard must never leave Task.Run.
func TestTaskRunCancelled(t *testing.T) {
	p, err := core.Build(context.Background(), code.Steane(), core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	if err != nil {
		t.Fatal(err)
	}
	est := sim.NewEstimator(p)
	// Two blocks, the second truncated by the budget.
	task := Task{
		ID: "job/0/0/0", Engine: est.EngineInUse().String(), Method: "rare",
		Model: noise.Uniform(1e-2), Seed: 9, Block0: 0, Block1: 2, Budget: sim.BlockShots + 1000,
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := task.Run(cancelled, est); !errors.Is(err, context.Canceled) || !reflect.DeepEqual(got, sim.Counts{}) {
		t.Fatalf("pre-cancelled Run = %+v, %v; want zero counts and context.Canceled", got, err)
	}

	// Count the polls of a full run, then trip at the first poll (before
	// block 0), inside each block, and at the last poll (after the last
	// block).
	probe := &tripCtx{Context: context.Background()}
	probe.n.Store(1 << 40)
	full, err := task.Run(probe, est)
	if err != nil {
		t.Fatal(err)
	}
	if full.Shots != task.ExpectedShots() {
		t.Fatalf("full run sampled %d shots, task expects %d", full.Shots, task.ExpectedShots())
	}
	polls := 1<<40 - probe.n.Load()
	for _, trip := range []int64{0, 1, 2, polls / 2, polls - 2, polls - 1} {
		ctx := &tripCtx{Context: context.Background()}
		ctx.n.Store(trip)
		got, err := task.Run(ctx, est)
		if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(got, sim.Counts{}) {
			t.Fatalf("Run cancelled at poll %d of %d = %+v, %v; want zero counts and context.Canceled", trip, polls, got, err)
		}
	}
}

// TestRareOldTaskRunsK1 decodes a rare task encoded before the
// conditioning field existed and requires it to run the k = 1 stream bit
// for bit — the stream a k = 1 block runner samples over the same blocks —
// while a k = 2 task carries min_faults on the wire, samples only shots
// with at least two faults, and a k = 1 task encodes exactly as before.
func TestRareOldTaskRunsK1(t *testing.T) {
	p, err := core.Build(context.Background(), code.Steane(), core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	if err != nil {
		t.Fatal(err)
	}
	est := sim.NewEstimator(p)
	ctx := context.Background()
	old := `{"id":"job/0/0/0","job":"job","point":0,"round":0,"shard":0,"protocol_key":"k",` +
		`"engine":"batch","method":"rare","model":{"p_1q":0.001,"p_2q":0.001,"p_meas":0.001,"eta":1},` +
		`"seed":9,"block0":0,"block1":2,"budget":8000}`
	var task Task
	if err := json.Unmarshal([]byte(old), &task); err != nil {
		t.Fatal(err)
	}
	got, err := task.Run(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	br, err := est.NewBlockRunner(sim.Sampling{Method: sim.MethodRare, MinFaults: 1}, task.Model)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		br.RunBlock(ctx, task.Seed, b, sim.BlockLen(task.Budget, b))
	}
	if want := br.Counts(); !reflect.DeepEqual(got, want) || got.Strata[0].W != 1 {
		t.Fatalf("old rare task ran %+v, want the k = 1 stream %+v", got, want)
	}
	if data, err := json.Marshal(task); err != nil || string(data) != old {
		t.Fatalf("k = 1 task re-encodes as %s (%v), want %s", data, err, old)
	}

	task.MinFaults = 2
	data, err := json.Marshal(task)
	if err != nil || !strings.Contains(string(data), `"min_faults":2`) {
		t.Fatalf("k = 2 task encodes as %s (%v)", data, err)
	}
	var k2 Task
	if err := json.Unmarshal(data, &k2); err != nil || k2 != task {
		t.Fatalf("k = 2 task decodes as %+v (%v)", k2, err)
	}
	c2, err := k2.Run(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Shots != task.ExpectedShots() || c2.Strata[0].W < 2 {
		t.Fatalf("k = 2 task sampled %+v; want %d shots, none below two faults", c2, task.ExpectedShots())
	}
	s, _ := k2.Sampling()
	if err := c2.Validate(s); err != nil {
		t.Fatalf("k = 2 counts fail their own validation: %v", err)
	}
}

// TestTaskRunChecksEngine requires Task.Run to refuse a task whose engine
// is not the one its estimator samples on — another engine draws another
// stream — and to run a task that names the estimator's own engine. A task
// on a protocol past the batch engine's packing limits (here a layer of 32
// verification measurements) fails with sim.ErrNotCompiled.
func TestTaskRunChecksEngine(t *testing.T) {
	p, err := core.Build(context.Background(), code.Steane(), core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	est := sim.NewEstimator(p)
	task := Task{ID: "job/0/0/0", Method: "direct", Model: noise.Uniform(2e-2), Seed: 9, Block0: 0, Block1: 1, Budget: 64}
	for _, engine := range []string{"scalar", "auto", "", "warp"} {
		task.Engine = engine
		if got, err := task.Run(ctx, est); err == nil || !reflect.DeepEqual(got, sim.Counts{}) {
			t.Errorf("%q task on a batch estimator ran %+v, %v; want an error and zero counts", engine, got, err)
		}
	}
	task.Engine = est.EngineInUse().String()
	if got, err := task.Run(ctx, est); err != nil || got.Shots != 64 {
		t.Errorf("batch task ran %+v, %v; want 64 shots", got, err)
	}

	wide, layer := *p, *p.Layers[0]
	for len(layer.Verif) <= 31 {
		layer.Verif = append(slices.Clip(layer.Verif), p.Layers[0].Verif...)
	}
	wide.Layers = []*core.Layer{&layer}
	if got, err := task.Run(ctx, sim.NewEstimator(&wide)); !errors.Is(err, sim.ErrNotCompiled) || !reflect.DeepEqual(got, sim.Counts{}) {
		t.Errorf("task on a protocol past the packing limits ran %+v, %v; want ErrNotCompiled", got, err)
	}
}

// TestSharedSkipsConcurrent drives one estimator — and so its one compiled
// batch engine, single-fault table and set of geometric gap tables — from
// 8 goroutines at two rates, direct and rare, through both
// sim.AdaptiveModel and Task.Run. Every answer must equal the one a
// separate estimator gives serially; CI runs the test under -race, which
// checks the shared state is only read.
func TestSharedSkipsConcurrent(t *testing.T) {
	p, err := core.Build(context.Background(), code.Steane(), core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	type point struct {
		method sim.Method
		rate   float64
	}
	points := []point{{sim.MethodDirect, 1e-2}, {sim.MethodDirect, 3e-3}, {sim.MethodRare, 1e-2}, {sim.MethodRare, 3e-3}}
	type answer struct {
		adaptive sim.AdaptiveResult
		task     sim.Counts
	}
	run := func(est *sim.Estimator, i int) (answer, error) {
		pt, seed := points[i], int64(i+1)
		m := noise.Uniform(pt.rate)
		ar, err := est.AdaptiveModel(ctx, pt.method, m, 0, sim.BlockShots+500, seed, 2)
		if err != nil {
			return answer{}, err
		}
		ar.ShotsPerSec = 0 // wall-clock, the one field that may differ
		s, err := est.Resolve(pt.method, m)
		if err != nil {
			return answer{}, err
		}
		task := Task{
			ID: "job/0/0/0", Engine: est.EngineInUse().String(), Method: pt.method.String(), MinFaults: s.MinFaults,
			Model: m, Seed: seed, Block0: 0, Block1: 2, Budget: sim.BlockShots + 700,
		}
		c, err := task.Run(ctx, est)
		return answer{ar, c}, err
	}
	want := make([]answer, len(points))
	for i := range points {
		if want[i], err = run(sim.NewEstimator(p), i); err != nil {
			t.Fatal(err)
		}
	}

	shared := sim.NewEstimator(p)
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(points))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range points {
				i := (g + k) % len(points)
				got, err := run(shared, i)
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("%+v: shared estimator gave %+v, want %+v", points[i], got, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
