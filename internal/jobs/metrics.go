package jobs

import (
	"repro/internal/telemetry"
)

// runnerMetrics holds the runner's telemetry instruments. The zero value
// (all nil) is fully functional and free: every telemetry method no-ops on
// nil, so an uninstrumented runner pays nothing.
type runnerMetrics struct {
	running      *telemetry.Gauge     // jobs with a live coordinator goroutine
	shards       *telemetry.Counter   // shards checkpointed durably
	resumed      *telemetry.Counter   // jobs resumed by ResumeAll
	shardSeconds *telemetry.Histogram // wall time per shard task
}

// Instrument registers the runner's metrics on reg: running-job and
// shard-queue-depth gauges, checkpointed-shard and resume counters, and a
// histogram of local shard wall time; with a workers listener active, also
// the lease coordinator's dftsp_remote_* families. Call it once, after
// StartRemote and before the first Submit; an uninstrumented runner runs
// identically with no metrics recorded.
func (r *Runner) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.metrics = runnerMetrics{
		running: reg.Gauge("dftsp_jobs_running",
			"Estimation jobs with a live coordinator in this process."),
		shards: reg.Counter("dftsp_jobs_shards_total",
			"Shard checkpoints appended durably to job logs."),
		resumed: reg.Counter("dftsp_jobs_resumed_total",
			"Unfinished jobs resumed from the store by ResumeAll."),
		shardSeconds: reg.Histogram("dftsp_jobs_shard_seconds",
			"Wall time of shard tasks run by the local pool.",
			telemetry.LatencyBuckets),
	}
	reg.GaugeFunc("dftsp_jobs_queue_depth",
		"Shard tasks queued at the lease coordinator and not yet granted to a worker.",
		func() float64 { return float64(r.queue.Pending()) })
	if r.remoteLn != nil {
		r.queue.Instrument(reg)
	}
}
