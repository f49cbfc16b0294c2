package dftsp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/jobs"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/store"
)

// The job layer's types, re-exported so API consumers (the HTTP server, the
// jobs CLI) work entirely in terms of this package.
type (
	// JobSpec is the canonical identity of a persistent estimation job;
	// see jobs.Spec.
	JobSpec = jobs.Spec

	// JobStatus is the reported state of a job; see jobs.Status.
	JobStatus = jobs.Status

	// JobPoint is the reported state of one job point; see
	// jobs.PointStatus.
	JobPoint = jobs.PointStatus

	// JobEvent is one entry of a job's progress feed; see jobs.Event.
	JobEvent = jobs.Event
)

// The job lifecycle states reported by JobStatus.State.
const (
	// JobStateRunning marks a job with a live coordinator in this process.
	JobStateRunning = jobs.StateRunning

	// JobStatePaused marks a job checkpointed on disk but not executing;
	// submitting its spec (or ResumeJobs) resumes it.
	JobStatePaused = jobs.StatePaused

	// JobStateDone marks a job that ran every point to completion.
	JobStateDone = jobs.StateDone

	// JobStateCancelled marks a job stopped by CancelJob, checkpoints
	// retained.
	JobStateCancelled = jobs.StateCancelled

	// JobStateFailed marks a job whose coordinator hit a non-recoverable
	// error (see JobStatus.Error).
	JobStateFailed = jobs.StateFailed
)

// ErrJobNotFound reports that no job exists for a requested ID. HTTP
// servers should map it to 404.
var ErrJobNotFound = jobs.ErrNotFound

// errNoJobs rejects job operations on a service without an attached job
// store.
var errNoJobs = errors.New("dftsp: no job store attached")

// AttachJobs layers a persistent estimation-job store under the service,
// opening (and creating if necessary) the directory dir. Job shards execute
// on a pool of the service's per-job Monte-Carlo worker count; the runner's
// protocol resolver is backed by the service's in-memory cache and, when a
// store is attached, by stored protocols — so after a WarmStart (or with a
// store attached) a restarted server can ResumeJobs without re-synthesizing
// anything. dir may be the protocol store's directory: job files (.dfj) and
// protocol entries (.dfp) coexist, and each layer's listing skips the
// other's files.
//
// remoteAddr is the listen address for remote worker replicas (the server's
// -workers-addr flag): when non-empty the runner starts a shardrpc
// coordinator there, and cmd/worker processes that connect lease job
// shards, racing the local pool — with zero workers connected execution is
// exactly the local-pool behavior. Workers resolve protocols through the
// coordinator's protocol endpoint, backed by this service's cache and
// store. Empty disables remote dispatch. Attach before serving requests;
// the job store cannot be swapped or detached later.
func (s *Service) AttachJobs(dir, remoteAddr string) error {
	st, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	r := jobs.NewRunner(st, s.resolveEstimator, s.workers, remoteAddr)
	if err := r.StartRemote(s.encodedProtocol); err != nil {
		r.Close(context.Background())
		return err
	}
	s.mu.Lock()
	if s.jobRunner != nil {
		dir := s.jobRunner.Store().Dir()
		s.mu.Unlock()
		r.Close(context.Background())
		return fmt.Errorf("dftsp: service already has a job store attached (%s)", dir)
	}
	s.jobRunner = r
	s.mu.Unlock()
	// Outside s.mu: registration takes the registry lock, and no job can be
	// running yet — the runner was created in this call.
	r.Instrument(s.reg)
	return nil
}

// JobRemoteStatus reports a runner's remote worker fleet; see
// jobs.RemoteStatus.
type JobRemoteStatus = jobs.RemoteStatus

// JobRemote reports the remote shard-dispatch state — listener address,
// connected workers, outstanding remote leases — and whether a workers
// listener is active (AttachJobs with a non-empty remoteAddr).
func (s *Service) JobRemote() (JobRemoteStatus, bool) {
	r := s.runner()
	if r == nil {
		return JobRemoteStatus{}, false
	}
	return r.Remote()
}

// encodedProtocol serves the store encoding of a cached or stored protocol
// by key — the coordinator's protocol endpoint for remote workers that
// cannot resolve a key from a local catalog. It never triggers synthesis,
// and its store reads are not counted as disk hits or misses.
func (s *Service) encodedProtocol(key string) ([]byte, error) {
	p, _ := s.lookup(key)
	if p == nil {
		return nil, fmt.Errorf("protocol %s is not available", key)
	}
	meta, err := storeMeta(key, p)
	if err != nil {
		return nil, err
	}
	return store.Encode(meta, p.Core)
}

// lookup returns the protocol under key without ever synthesizing:
// a completed in-memory cache entry first, stored protocols second. An
// in-flight synthesis falls through to the store rather than block the
// caller (possibly a job coordinator) on SAT work. read reports whether
// the store was read; a nil p with read set is a store miss.
func (s *Service) lookup(key string) (p *Protocol, read bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	st := s.store
	s.mu.Unlock()
	if ok {
		select {
		case <-e.ready:
			if e.err == nil && e.p != nil {
				return e.p, false
			}
		default:
		}
	}
	if st == nil {
		return nil, false
	}
	p, _ = s.loadStored(st, key)
	return p, true
}

// JobsDir returns the directory of the attached job store, or "" when no
// job store is attached.
func (s *Service) JobsDir() string {
	if r := s.runner(); r != nil {
		return r.Store().Dir()
	}
	return ""
}

// runner snapshots the attached job runner (nil when none is attached).
func (s *Service) runner() *jobs.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobRunner
}

// resolveEstimator is the job runner's protocol resolver, over lookup: it
// returns the protocol's own estimator, so a job on a cached protocol
// shares its compile, single-fault table and gap tables with /estimate,
// and the payload checksum of the protocol's store encoding under key,
// the one its .dfp file records. It never triggers a synthesis —
// SubmitJob synthesizes before submitting, and at resume time a protocol
// that is neither cached nor stored cannot be reconstructed from its key
// alone. Store reads count as disk hits or misses.
func (s *Service) resolveEstimator(ctx context.Context, key string) (*sim.Estimator, string, error) {
	p, read := s.lookup(key)
	switch {
	case p != nil && read:
		s.diskHits.Inc()
	case read:
		s.diskMisses.Inc()
	}
	if p == nil {
		return nil, "", fmt.Errorf("protocol %s is not available (synthesize it first, or attach its store)", key)
	}
	meta, err := storeMeta(key, p)
	if err != nil {
		return nil, "", err
	}
	sum, err := store.Checksum(meta, p.Core)
	if err != nil {
		return nil, "", err
	}
	return p.est.estimator(p.Core), sum, nil
}

// SubmitJob synthesizes (or fetches) the protocol for opts and submits a
// persistent estimation job over eo's rate grid, returning the job's status
// immediately — sampling continues in the background and survives process
// restarts via per-shard checkpoints (resume with ResumeJobs or by
// resubmitting the same options). A submission whose normalized spec
// matches a running job attaches to it; one matching a finished job returns
// the stored result.
//
// Only eo's sampling-relevant fields enter the job spec: Rates (defaulted
// to the paper's Fig. 4 grid), Method, TargetRSE, MaxShots, MCShots,
// Seed and the noise-model fields Bias2Q, BiasMeas and Eta (a spelled-out
// bias of 1 normalizes away, so it cannot split the job identity). Unlike
// Estimate, a job samples every grid point — MCMinRate
// does not apply — so each point keeps the exact per-point seed an
// /estimate of the same options would use, and their results stay
// bit-comparable. A protocol past the batch engine's packing limits is
// refused with ErrBadOptions before any job file is written.
func (s *Service) SubmitJob(ctx context.Context, opts Options, eo EstimateOptions) (JobStatus, error) {
	r := s.runner()
	if r == nil {
		return JobStatus{}, errNoJobs
	}
	if err := eo.Validate(); err != nil {
		return JobStatus{}, err
	}
	if eo.TargetRSE == 0 && eo.MCShots == 0 {
		return JobStatus{}, badOptions("an estimation job needs a sampling budget: set target_rse or mc_shots")
	}
	p, _, err := s.Protocol(ctx, opts)
	if err != nil {
		return JobStatus{}, err
	}
	// A protocol past the batch engine's packing limits has no sampler:
	// refuse it before the runner writes a job file for it.
	if _, err := p.est.estimator(p.Core).Resolve(sim.MethodDirect, noise.Model{}); err != nil {
		return JobStatus{}, estimateError(err)
	}
	key, err := p.Options.Key()
	if err != nil {
		return JobStatus{}, err
	}
	d := eo.withDefaults()
	spec := JobSpec{
		ProtocolKey: key,
		Method:      d.Method,
		Rates:       d.Rates,
		TargetRSE:   d.TargetRSE,
		MaxShots:    d.MaxShots,
		MCShots:     d.MCShots,
		Seed:        d.Seed,
		Bias2Q:      d.Bias2Q,
		BiasMeas:    d.BiasMeas,
		Eta:         d.Eta,
	}
	status, err := r.Submit(spec)
	if err != nil {
		if errors.Is(err, jobs.ErrBadSpec) {
			return JobStatus{}, badOptions("%w", err)
		}
		return JobStatus{}, err
	}
	return status, nil
}

// Job returns the status of the job with the given ID, whether it is
// running in this process or only checkpointed on disk. Unknown IDs return
// ErrJobNotFound.
func (s *Service) Job(id string) (JobStatus, error) {
	r := s.runner()
	if r == nil {
		return JobStatus{}, errNoJobs
	}
	return r.Job(id)
}

// Jobs lists the status of every known job, sorted by ID.
func (s *Service) Jobs() ([]JobStatus, error) {
	r := s.runner()
	if r == nil {
		return nil, errNoJobs
	}
	return r.Jobs()
}

// CancelJob stops a running job. Durable checkpoints remain, so submitting
// the same spec later resumes it; cancelling a job that is not running
// returns ErrJobNotFound.
func (s *Service) CancelJob(id string) error {
	r := s.runner()
	if r == nil {
		return errNoJobs
	}
	return r.Cancel(id)
}

// WatchJob subscribes to a job's progress events; the channel closes when
// the job settles (or immediately, if it is not running). The stop function
// detaches early. Events may be dropped under backpressure — Job(id) is the
// authoritative state.
func (s *Service) WatchJob(id string) (<-chan JobEvent, func(), error) {
	r := s.runner()
	if r == nil {
		return nil, nil, errNoJobs
	}
	return r.Watch(id)
}

// ResumeJobs submits every unfinished job found in the job store — the boot
// step that makes a restarted server pick up where a killed process
// stopped. Run WarmStart (or attach the protocol store) first so the jobs'
// protocols resolve: a job whose protocol does not resolve resumes as a
// failed job, resumable once its protocol is available. Jobs whose submit
// fails are reported in the joined error but do not stop the sweep.
func (s *Service) ResumeJobs() ([]JobStatus, error) {
	r := s.runner()
	if r == nil {
		return nil, errNoJobs
	}
	return r.ResumeAll()
}

// ShutdownJobs gracefully stops the job runner: in-flight shards finish and
// are checkpointed, running jobs are left paused on disk for a later
// ResumeJobs. If ctx expires first remaining jobs are cancelled hard, which
// is safe — partial shard counts are never checkpointed — and ctx.Err() is
// returned. With no job store attached it is a no-op.
func (s *Service) ShutdownJobs(ctx context.Context) error {
	r := s.runner()
	if r == nil {
		return nil
	}
	return r.Close(ctx)
}
