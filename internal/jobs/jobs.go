// Package jobs is the persistent estimation-job layer: it turns a logical
// error-rate estimation request — a protocol, a noise model, a sampling
// method and a grid of physical rates — into a durable, resumable job that
// is executed as many small deterministic shards and checkpointed after
// every shard.
//
// The design mirrors internal/store: a job is a flat self-describing file
// in a directory, content-addressed by the SHA-256 of its canonical spec,
// carrying a one-line JSON header with a payload checksum, created by an
// atomic temp-file + rename, with every failure mode mapped onto a typed
// error (ErrNotFound, ErrCorrupt, ErrVersion). Unlike a protocol entry, a
// job file then grows: an append-only log of checksummed checkpoint
// records, one per completed shard, fsynced before the shard is considered
// durable, so a killed process resumes from the last record that made it
// to disk.
//
// Sharding rides on the deterministic block scheduler of internal/sim:
// each point's budget is cut into sim.BlockShots-shot blocks whose RNG
// streams are keyed by block index, shards are fixed runs of ShardBlocks
// consecutive blocks, and the adaptive stopping rule is evaluated at the
// same sim.BlocksPerRound boundaries the in-process estimators use.
// Because shard (shots, fails, strata) counts pool by exact integer
// addition (sim.PoolCounts) and the coordinator recomputes the statistics
// from the pooled counts (sim.Counts.ResultModel), a job's results are
// bit-identical to a single-process estimate with the same seed — no
// matter how many workers, restarts or replicas the shards were spread
// over.
//
// The full file format is specified in docs/job-format.md.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/noise"
	"repro/internal/sim"
)

// Typed failure modes of the job store, mirroring internal/store.
var (
	// ErrNotFound reports that no job exists for the requested ID.
	ErrNotFound = errors.New("jobs: job not found")

	// ErrCorrupt reports an unreadable job file: truncated or malformed
	// header, spec checksum mismatch, or a spec that fails validation.
	// (A corrupt checkpoint *record* is not an error: recovery simply
	// resumes from the last good record.)
	ErrCorrupt = errors.New("jobs: corrupt job file")

	// ErrVersion reports a job file written with an incompatible schema
	// version.
	ErrVersion = errors.New("jobs: unsupported schema version")

	// ErrBadSpec rejects an invalid job spec before anything is written.
	ErrBadSpec = errors.New("jobs: invalid job spec")

	// ErrClosed rejects operations on a runner that has been shut down.
	ErrClosed = errors.New("jobs: runner closed")
)

// NoiseCircuitDepolarizing is the only noise model the estimators
// implement: the paper's circuit-level depolarizing model E1_1.
const NoiseCircuitDepolarizing = "E1_1"

// ShardBlocks is the number of scheduler blocks in one checkpoint shard —
// the unit of work stealing and of durability. At sim.BlockShots (4096)
// shots per block a shard is 32768 shots: small enough that a killed
// process loses at most a few CPU-seconds per worker, large enough that
// the per-shard fsync is invisible in the sampling throughput. It divides
// sim.BlocksPerRound, so shards never straddle a stopping-rule boundary.
const ShardBlocks = 8

// Spec is the complete, canonical identity of an estimation job: the
// protocol (by its store key), the noise model, the sampling method and
// engine, the point grid and the sampling budget. Two submissions with the
// same normalized spec are the same job — they share one ID, one file and
// one execution.
type Spec struct {
	// ProtocolKey is the canonical options key of the protocol to
	// estimate (dftsp Options.Key), the same string the protocol store is
	// addressed by.
	ProtocolKey string `json:"protocol_key"`

	// Noise names the noise model; "" selects (and only permits)
	// NoiseCircuitDepolarizing.
	Noise string `json:"noise"`

	// Method is the sampling method per point: "auto" (crossover policy),
	// "direct" or "rare". "" selects "auto".
	Method string `json:"method"`

	// Engine is the Monte-Carlo engine: "auto", "scalar" or "batch".
	// "" selects "auto". The engine is part of the job identity because
	// batch and scalar engines draw different RNG sequences.
	Engine string `json:"engine"`

	// Rates is the grid of physical error rates, one job point per rate,
	// each strictly inside (0, 1).
	Rates []float64 `json:"rates"`

	// TargetRSE, when > 0, runs each point adaptively until its relative
	// standard error reaches the target or MaxShots is exhausted.
	TargetRSE float64 `json:"target_rse,omitempty"`

	// MaxShots caps adaptive sampling per point; 0 selects 10,000,000
	// when TargetRSE > 0.
	MaxShots int `json:"max_shots,omitempty"`

	// MCShots is the fixed per-point budget when TargetRSE == 0; at least
	// one of TargetRSE and MCShots must be set. When TargetRSE > 0 it is
	// ignored and cleared by Normalized, so a budget that would not run
	// cannot split the job identity.
	MCShots int `json:"mc_shots,omitempty"`

	// Seed seeds all sampling (per-point streams derive via
	// sim.PointSeed); 0 selects 1.
	Seed int64 `json:"seed,omitempty"`

	// Bias2Q and BiasMeas scale the two-qubit and measurement fault rates
	// relative to the base rate (dftsp EstimateOptions.Bias2Q/BiasMeas):
	// at point rate p, two-qubit locations fault with p·Bias2Q and
	// measurements flip with p·BiasMeas. 0 and 1 both select the uniform
	// paper model; Normalized clears 1 back to 0 so a spelled-out default
	// cannot split the job identity, and every legacy spec keeps its ID.
	Bias2Q   float64 `json:"bias_2q,omitempty"`
	BiasMeas float64 `json:"bias_meas,omitempty"`

	// Eta is the two-qubit operator menu's Z-bias (dftsp
	// EstimateOptions.Eta): each two-qubit Pauli is weighted by
	// Eta^(number of pure-Z slots). 0 and 1 both select the uniform menu,
	// with the same Normalized identity rule as the bias fields.
	Eta float64 `json:"eta,omitempty"`
}

// NoiseRatio returns the per-class noise model ratio the spec selects, with
// zero bias fields replaced by 1; Model scales it to a point's rate.
func (s Spec) NoiseRatio() noise.Model {
	m := noise.Model{P1Q: 1, P2Q: 1, PMeas: 1, Eta: 1}
	if s.Bias2Q != 0 {
		m.P2Q = s.Bias2Q
	}
	if s.BiasMeas != 0 {
		m.PMeas = s.BiasMeas
	}
	if s.Eta != 0 {
		m.Eta = s.Eta
	}
	return m
}

// Model returns the noise model sampled at physical rate p: the spec's
// noise ratio scaled by p. For a spec without bias fields this is
// noise.Uniform(p), which the estimators run on their single-rate inner
// paths bit-identically.
func (s Spec) Model(p float64) noise.Model { return s.NoiseRatio().Scale(p) }

// Biased reports whether the spec selects anything other than the uniform
// paper model.
func (s Spec) Biased() bool { return !s.NoiseRatio().IsUniform() }

// Normalized returns the spec with every defaulted field made explicit —
// the canonical form the job ID is computed over, so "auto" and "" method
// submissions coalesce onto the same job.
func (s Spec) Normalized() Spec {
	if s.Noise == "" {
		s.Noise = NoiseCircuitDepolarizing
	}
	if s.Method == "" {
		s.Method = "auto"
	}
	if s.Engine == "" {
		s.Engine = "auto"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TargetRSE > 0 {
		if s.MaxShots <= 0 {
			s.MaxShots = 10_000_000
		}
		s.MCShots = 0
	}
	// A bias of exactly 1 is the default; canonicalize it to the omitted
	// form so biased-syntax submissions of the uniform model share the ID
	// (and the file) of their legacy spelling.
	if s.Bias2Q == 1 {
		s.Bias2Q = 0
	}
	if s.BiasMeas == 1 {
		s.BiasMeas = 0
	}
	if s.Eta == 1 {
		s.Eta = 0
	}
	return s
}

// Validate reports whether the spec describes a runnable job; rejections
// wrap ErrBadSpec.
func (s Spec) Validate() error {
	s = s.Normalized()
	if s.ProtocolKey == "" {
		return fmt.Errorf("%w: empty protocol key", ErrBadSpec)
	}
	if s.Noise != NoiseCircuitDepolarizing {
		return fmt.Errorf("%w: unknown noise model %q (only %q is implemented)", ErrBadSpec, s.Noise, NoiseCircuitDepolarizing)
	}
	if _, err := sim.ParseMethod(s.Method); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if _, err := sim.ParseEngine(s.Engine); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("%w: no rates", ErrBadSpec)
	}
	for _, b := range []struct {
		name string
		v    float64
	}{{"bias_2q", s.Bias2Q}, {"bias_meas", s.BiasMeas}, {"eta", s.Eta}} {
		if b.v != 0 && !(b.v > 0 && !math.IsInf(b.v, 1)) {
			return fmt.Errorf("%w: %s %g must be a positive finite multiplier (or 0 for 1)", ErrBadSpec, b.name, b.v)
		}
	}
	for _, r := range s.Rates {
		if r <= 0 || r >= 1 {
			return fmt.Errorf("%w: physical rate %g outside (0,1)", ErrBadSpec, r)
		}
		if m := s.Model(r); m.MaxRate() >= 1 {
			return fmt.Errorf("%w: biased rate %g at p = %g reaches 1", ErrBadSpec, m.MaxRate(), r)
		}
	}
	if s.TargetRSE < 0 || s.TargetRSE >= 1 {
		return fmt.Errorf("%w: target_rse %g outside [0,1)", ErrBadSpec, s.TargetRSE)
	}
	if s.MCShots < 0 || s.MaxShots < 0 {
		return fmt.Errorf("%w: negative shot budget", ErrBadSpec)
	}
	if s.TargetRSE == 0 && s.MCShots == 0 {
		return fmt.Errorf("%w: no budget (set target_rse or mc_shots)", ErrBadSpec)
	}
	return nil
}

// Budget returns the per-point stopping target and shot budget the spec
// selects: (TargetRSE, MaxShots) in adaptive mode, (0, MCShots) for a
// fixed budget — the same rule dftsp's in-process Estimate applies, which
// is what keeps a job's points comparable to an /estimate of the same
// options.
func (s Spec) Budget() (targetRSE float64, shots int) {
	s = s.Normalized()
	if s.TargetRSE > 0 {
		return s.TargetRSE, s.MaxShots
	}
	return 0, s.MCShots
}

// ID returns the job's content address: the first 32 hex characters of the
// SHA-256 of the canonical (normalized) spec encoding. Specs differing
// only in defaulted fields map to the same ID.
func (s Spec) ID() string {
	data, err := json.Marshal(s.Normalized())
	if err != nil {
		// A Spec contains only strings, numbers and a float slice; its
		// marshaling cannot fail.
		panic(fmt.Sprintf("jobs: marshal spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:32]
}

// checksum returns the store's checksum encoding of data.
func checksum(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}
