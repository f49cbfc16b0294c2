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
	"fmt"

	"repro/internal/noise"
	"repro/internal/sim"
)

// PathPrefix is the URL prefix of every shard-dispatch endpoint, versioned
// so a future incompatible revision can coexist with this one.
const PathPrefix = "/shardrpc/v1/"

// LocalHolder is the holder name of leases granted to the coordinator's own
// local worker pool through LeaseLocal.
const LocalHolder = "local"

// Task describes one shard of an estimation job: which blocks to run, with
// which protocol, engine, method, noise model and seed. It carries the
// coordinator's fully resolved choices — Engine and Method are never
// "auto" — so every worker samples the exact stream the coordinator's own
// pool would, regardless of the worker's environment.
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

	// Engine is the resolved sampling engine ("scalar" or "batch").
	Engine string `json:"engine"`

	// Method is the resolved sampling method ("direct" or "rare").
	Method string `json:"method"`

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

// BlockShots returns the shot count of block b under the task's budget:
// full sim.BlockShots blocks except for a truncated final block.
func (t Task) BlockShots(b int) int {
	return min(sim.BlockShots, t.Budget-b*sim.BlockShots)
}

// ExpectedShots returns the exact shot total a faithful execution of the
// task must report. The coordinator rejects completions that disagree
// (garbage guard) and re-leases the shard.
func (t Task) ExpectedShots() int64 {
	var total int64
	for b := t.Block0; b < t.Block1; b++ {
		total += int64(t.BlockShots(b))
	}
	return total
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
