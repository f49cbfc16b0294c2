package jobs

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// metricValue digs one un-labeled sample out of an exposition payload.
func metricValue(t *testing.T, exposition, name string) string {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, exposition)
	return ""
}

// TestRunnerMetrics drives a small job through an instrumented runner and
// checks the full metric lifecycle: the running gauge returns to zero, the
// queue drains, every durable shard is counted, and a resumed job shows up
// in the resume counter.
func TestRunnerMetrics(t *testing.T) {
	reg := telemetry.New()
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Rates:       []float64{3e-2},
		MCShots:     2 * sim.BlockShots,
		Seed:        3,
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	r.Instrument(reg)
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q, want done", st.State)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := metricValue(t, out, "dftsp_jobs_running"); got != "0" {
		t.Errorf("dftsp_jobs_running = %s after completion, want 0", got)
	}
	if got := metricValue(t, out, "dftsp_jobs_queue_depth"); got != "0" {
		t.Errorf("dftsp_jobs_queue_depth = %s after completion, want 0", got)
	}
	if got := metricValue(t, out, "dftsp_jobs_shards_total"); got == "0" {
		t.Error("dftsp_jobs_shards_total stayed 0 over a completed job")
	}
	if got := metricValue(t, out, "dftsp_jobs_commits_total"); got == "0" {
		t.Error("dftsp_jobs_commits_total stayed 0 over a completed job")
	}
	if got := metricValue(t, out, "dftsp_jobs_shard_seconds_count"); got == "0" {
		t.Error("shard histogram recorded no observations")
	}
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}

	// A second runner over the same store resumes nothing (the job is
	// done); an unfinished job on disk is resumed and counted.
	reg2 := telemetry.New()
	store2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prepPartial(t, store2, spec, 1, 0)
	r2 := NewRunner(store2, steaneResolver(t), 2, "")
	r2.Instrument(reg2)
	resumed, err := r2.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	waitTerminal(t, r2, resumed[0].ID)
	if err := r2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := reg2.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, sb.String(), "dftsp_jobs_resumed_total"); got != "1" {
		t.Errorf("dftsp_jobs_resumed_total = %s, want 1", got)
	}
}

// TestQueueDepthWithListener pins dftsp_jobs_queue_depth on the one shard
// queue: with a workers listener active and no worker connected, a
// one-goroutine pool keeps the rest of each round's shards pending, and
// the gauge must report them.
func TestQueueDepthWithListener(t *testing.T) {
	r, _ := remoteRunner(t, 1)
	reg := telemetry.New()
	r.Instrument(reg)
	st, err := r.Submit(Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2},
		MCShots:     16 * sim.BlocksPerRound * sim.BlockShots,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cancel(st.ID)
	for {
		var sb strings.Builder
		if err := reg.Expose(&sb); err != nil {
			t.Fatal(err)
		}
		if metricValue(t, sb.String(), "dftsp_jobs_queue_depth") != "0" {
			return
		}
		if st, err := r.Job(st.ID); err != nil || st.State != StateRunning {
			t.Fatalf("job settled (%q, %v) and the queue depth never left 0", st.State, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCommitsCountBatches pins dftsp_jobs_commits_total to one per write
// and fsync of a shard batch. On a queue that runs each shard as it is
// offered, a twelve-shard fixed-budget point commits a full window of
// eight shards at once and then the last four: two commits, so shards over
// commits reads the mean batch size, six.
func TestCommitsCountBatches(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	r := stubRunner(t, store, &stubQueue{inline: true})
	r.Instrument(reg)
	st, err := r.Submit(windowSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st = waitTerminal(t, r, st.ID); st.State != StateDone {
		t.Fatalf("job state %q, want done", st.State)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if shards, commits := metricValue(t, out, "dftsp_jobs_shards_total"), metricValue(t, out, "dftsp_jobs_commits_total"); shards != "12" || commits != "2" {
		t.Errorf("%s shards in %s commits, want 12 in 2", shards, commits)
	}
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}
