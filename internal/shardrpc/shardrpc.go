// Package shardrpc implements the lease-based shard-dispatch protocol that
// lets remote worker processes execute estimation-job shards for a
// coordinator, bit-identical to a purely local run.
//
// The coordinator owns all state. A worker registers, leases one shard task
// at a time, renews a heartbeat while sampling, and reports the shard's
// pooled sim.Counts back on completion. Leases carry a TTL and a
// monotonically increasing generation (a fencing token): when a lease
// expires the task returns to the queue and is re-leased — to another
// worker or to the coordinator's local pool — under a higher generation,
// and any completion carrying a stale generation is rejected. A zombie
// worker that finishes a shard after its lease expired therefore cannot
// double-count it. Because shard RNG streams are keyed by block index (not
// by worker) and shard counts pool by exact integer addition, any
// task-to-worker assignment whatsoever produces the same pooled counts.
//
// The wire protocol is JSON over HTTP under PathPrefix; docs/shard-protocol.md
// specifies the endpoints, the lease state machine and the failure matrix.
package shardrpc

import (
	"context"
	"fmt"

	"repro/internal/noise"
	"repro/internal/sim"
)

// PathPrefix is the URL prefix of every shard-dispatch endpoint. Its
// version moves whenever a task's shard would sample differently in an
// older worker: v2 came with the batch engine's stream version 2
// (sim.BatchStream), so a worker that draws the older stream cannot lease
// a task whose point pools version-2 shards.
const PathPrefix = "/shardrpc/v2/"

// LocalHolder is the holder name of leases granted to the coordinator's own
// local worker pool through LeaseLocal.
const LocalHolder = "local"

// Task describes one shard of an estimation job: which blocks to run, with
// which protocol, engine, sampling, noise model and seed. It carries the
// coordinator's fully resolved choices — Method is never "auto", and a
// rare task names its conditioning — so every worker samples
// the exact stream the coordinator's own pool would, regardless of the
// worker's environment.
type Task struct {
	// ID names the task uniquely within the coordinator ("job/point/round/shard").
	ID string `json:"id"`

	// Job, Point, Round and Shard locate the shard in the job's checkpoint
	// grid (the jobs.ShardKey plus the job ID).
	Job   string `json:"job"`
	Point int    `json:"point"`
	Round int    `json:"round"`
	Shard int    `json:"shard"`

	// ProtocolKey is the content address of the protocol to sample; workers
	// resolve it from a local store or the coordinator's protocol endpoint.
	ProtocolKey string `json:"protocol_key"`

	// Engine is the engine the coordinator's estimator samples on, always
	// "batch"; Run refuses a task naming another, such as the "scalar"
	// engine of earlier builds.
	Engine string `json:"engine"`

	// Method is the resolved sampling method ("direct" or "rare").
	Method string `json:"method"`

	// MinFaults is the resolved rare-event conditioning k of a "rare"
	// task: every shot holds at least k faults (sim.Sampling.MinFaults).
	// It is omitted when 1, so a task encoded before k = 2 existed decodes
	// and runs as k = 1.
	MinFaults int `json:"min_faults,omitempty"`

	// Model is the per-location-class noise model of the task's rate point.
	Model noise.Model `json:"model"`

	// Seed is the point's RNG seed (sim.PointSeed of the job seed); block
	// streams derive from it by block index.
	Seed int64 `json:"seed"`

	// Block0 and Block1 bound the task's half-open block range [Block0, Block1).
	Block0 int `json:"block0"`
	Block1 int `json:"block1"`

	// Budget is the point's total shot budget; the final block of a point
	// may be truncated by it.
	Budget int `json:"budget"`
}

// ExpectedShots returns the exact shot total a faithful execution of the
// task must report. The coordinator rejects completions that disagree
// (garbage guard) and re-leases the shard.
func (t Task) ExpectedShots() int64 {
	var total int64
	for b := t.Block0; b < t.Block1; b++ {
		total += int64(sim.BlockLen(t.Budget, b))
	}
	return total
}

// Sampling returns the task's resolved sampling: its method and, for a
// rare task, its conditioning. The conditioning weight is left 0; only the
// point's finisher needs it.
func (t Task) Sampling() (sim.Sampling, error) {
	method, err := sim.ParseMethod(t.Method)
	return sim.Sampling{Method: method, MinFaults: t.MinFaults}, err
}

// Run executes the task's block range [Block0, Block1) on one
// sim.BlockRunner and returns the shard's counts. It is the one shard
// executor: the coordinator's local pool and every remote worker run it,
// so both sample the identical streams. It refuses a task whose Engine is
// not the one est samples on (EngineInUse), since that engine would draw
// another stream, and a protocol past the batch engine's packing limits
// (sim.ErrNotCompiled), and runs the task's sampling as recorded, never
// re-resolved. ctx is checked before every block and after the last, and a
// cancelled run returns ctx.Err() with zero counts — a partial shard never
// leaves Run.
func (t Task) Run(ctx context.Context, est *sim.Estimator) (sim.Counts, error) {
	s, err := t.Sampling()
	if err != nil {
		return sim.Counts{}, err
	}
	if e := est.EngineInUse().String(); t.Engine != e {
		return sim.Counts{}, fmt.Errorf("shardrpc: task %s samples on engine %q, the protocol on %q", t.ID, t.Engine, e)
	}
	br, err := est.NewBlockRunner(s, t.Model)
	if err != nil {
		return sim.Counts{}, err
	}
	for b := t.Block0; b < t.Block1; b++ {
		if err := ctx.Err(); err != nil {
			return sim.Counts{}, err
		}
		br.RunBlock(ctx, t.Seed, b, sim.BlockLen(t.Budget, b))
	}
	if err := ctx.Err(); err != nil {
		return sim.Counts{}, err
	}
	return br.Counts(), nil
}

// Lease is a granted task lease: the task, its fencing generation, and the
// TTL within which the worker must heartbeat or complete.
type Lease struct {
	// Task is the shard to execute.
	Task Task `json:"task"`

	// Gen is the lease generation — the fencing token the worker must echo
	// on every heartbeat and on completion.
	Gen uint64 `json:"gen"`

	// TTLMs is the lease TTL in milliseconds; the worker should heartbeat
	// at a fraction (a third) of it.
	TTLMs int64 `json:"ttl_ms"`
}

// registerRequest announces a worker to the coordinator.
type registerRequest struct {
	Name string `json:"name"`
}

// registerResponse returns the worker's coordinator-assigned ID and the
// lease TTL in force.
type registerResponse struct {
	WorkerID string `json:"worker_id"`
	TTLMs    int64  `json:"ttl_ms"`
}

// leaseRequest asks for one task, long-polling up to WaitMs milliseconds.
type leaseRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMs   int64  `json:"wait_ms"`
}

// heartbeatRequest renews a held lease.
type heartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
	Gen      uint64 `json:"gen"`
}

// deregisterRequest removes a worker from the coordinator's registry.
type deregisterRequest struct {
	WorkerID string `json:"worker_id"`
}

// completeRequest reports a finished shard's pooled counts under the
// lease's fencing generation.
type completeRequest struct {
	WorkerID string     `json:"worker_id"`
	TaskID   string     `json:"task_id"`
	Gen      uint64     `json:"gen"`
	Counts   sim.Counts `json:"counts"`
}

// completeResponse acknowledges a completion. Duplicate marks a re-delivery
// of a completion the coordinator had already accepted from the same lease
// (idempotent; the counts were counted exactly once).
type completeResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// errorResponse is the JSON body of every non-2xx protocol response.
type errorResponse struct {
	Error string `json:"error"`
}

// TaskID renders the canonical task ID for a shard.
func TaskID(job string, point, round, shard int) string {
	return fmt.Sprintf("%s/%d/%d/%d", job, point, round, shard)
}
