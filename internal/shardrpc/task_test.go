package shardrpc

import (
	"context"
	"errors"
	"reflect"
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
