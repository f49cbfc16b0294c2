package dftsp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/correct"
	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Service is the long-running core of a synthesis server: it memoizes
// SAT-synthesized protocols in an in-memory cache keyed by the canonical
// Options key, coalesces concurrent identical requests so each distinct
// protocol is synthesized exactly once, and bounds the number of concurrent
// estimation jobs so Monte-Carlo fan-out never oversubscribes the CPUs.
// With a persistent store attached (AttachStore), lookups fall through
// memory → disk → SAT solve, and successful syntheses are written back to
// disk so they survive restarts; WarmStart preloads the store into memory
// at boot. Its syntheses share one correction memo (correct.Memo), so a
// correction problem solved for one protocol answers it for every later
// one; the protocols are byte-identical to those of Synthesize, which
// solves every problem afresh.
//
// All operational counters live on a telemetry.Registry (Metrics): the
// server scrapes it at /metrics and Stats derives its JSON snapshot from
// the very same metric values, so the two surfaces can never disagree.
//
// Cancellation semantics: every request carries a context. A request that
// joins an in-flight synthesis and then abandons it (context cancelled)
// returns immediately without killing the synthesis other waiters still
// depend on; only when the *last* waiter of an entry walks away is the
// underlying SAT work cancelled and the slot cleared.
type Service struct {
	workers int // per-job Monte-Carlo worker count
	reg     *telemetry.Registry

	mu        sync.Mutex
	entries   map[string]*cacheEntry
	store     *store.Tiered // nil: memory-only
	jobRunner *jobs.Runner  // nil: no job store attached (AttachJobs)

	// shotsPerSec is an exponentially weighted moving average of per-job
	// sampling throughput; as a derived float it stays under mu and is
	// exported through a gauge function rather than a counter.
	shotsPerSec float64

	// Registry-backed counters — the single source of truth behind both
	// Stats and the /metrics exposition.
	hits          *telemetry.Counter
	misses        *telemetry.Counter
	coalesced     *telemetry.Counter
	failed        *telemetry.Counter
	diskHits      *telemetry.Counter
	diskMisses    *telemetry.Counter
	storeWrites   *telemetry.Counter
	writeFailures *telemetry.Counter
	preloaded     *telemetry.Counter
	shotsSampled  *telemetry.CounterVec // labels: engine, method
	synthSeconds  *telemetry.Histogram
	estSeconds    *telemetry.Histogram
	strataHits    *telemetry.Counter // requests that reused a remembered curve
	strataMisses  *telemetry.Counter // requests that computed their curve

	// corrMemo answers every correction problem a synthesis of this
	// service solved before (correct.Memo); dftsp_correction_memo_total
	// counts how.
	corrMemo *correct.Memo

	estSem   chan struct{} // bounds concurrent estimation jobs
	batchSem chan struct{} // bounds concurrent batch synthesis items
}

// cacheEntry is one cache slot. ready is closed when the synthesis that
// populated the slot finished; waiters block on it instead of re-running
// the SAT solver. waiters counts the requests currently blocked on ready;
// cancel aborts the synthesis and is invoked when waiters drops to zero
// before completion.
type cacheEntry struct {
	ready    chan struct{}
	p        *Protocol
	err      error
	waiters  int  // guarded by Service.mu
	fromDisk bool // entry was served from the persistent store, not solved
	cancel   context.CancelFunc
}

// ServiceStats is a snapshot of the service's cache and store counters.
// Memory and disk are counted separately: a request served by decoding a
// stored protocol increments DiskHits, never Hits, and only requests that
// actually ran the SAT solver count as Misses.
type ServiceStats struct {
	Entries   int    `json:"entries"`   // cached protocols (in memory)
	Hits      uint64 `json:"hits"`      // served from a completed in-memory entry
	Misses    uint64 `json:"misses"`    // requests that ran a SAT synthesis
	Coalesced uint64 `json:"coalesced"` // requests that joined an in-flight synthesis
	Failed    uint64 `json:"failed"`    // requests whose synthesis (own or awaited) failed
	Workers   int    `json:"workers"`   // Monte-Carlo workers per estimation job

	// Persistent-store counters; all zero while no store is attached.
	DiskHits      uint64 `json:"disk_hits"`            // served by decoding a stored protocol
	DiskMisses    uint64 `json:"disk_misses"`          // store probed, no usable entry
	StoreWrites   uint64 `json:"store_writes"`         // protocols persisted after synthesis
	WriteFailures uint64 `json:"store_write_failures"` // persist attempts that failed (request still served)
	Preloaded     uint64 `json:"preloaded"`            // protocols loaded into memory by WarmStart

	// ShotsSampled is the cumulative number of Monte-Carlo shots executed
	// by estimation jobs; ShotsPerSec is an exponentially weighted moving
	// average (α = 0.3) of per-job sampling throughput. Both stay zero
	// until a request actually samples (mc_shots or target_rse set).
	ShotsSampled uint64  `json:"shots_sampled"`
	ShotsPerSec  float64 `json:"shots_per_sec"`
}

// NewService returns a service whose estimation jobs each use the given
// Monte-Carlo worker count; workers <= 0 selects sim.DefaultWorkers(). The
// number of concurrent estimation jobs is bounded so that jobs × workers
// stays near the CPU count (always allowing at least one job). Batch
// synthesis items run at most NumCPU at a time.
func NewService(workers int) *Service {
	if workers <= 0 {
		workers = sim.DefaultWorkers()
	}
	jobs := runtime.NumCPU() / workers
	if jobs < 1 {
		jobs = 1
	}
	s := &Service{
		workers:  workers,
		reg:      telemetry.New(),
		entries:  map[string]*cacheEntry{},
		estSem:   make(chan struct{}, jobs),
		batchSem: make(chan struct{}, runtime.NumCPU()),
	}
	r := s.reg
	s.hits = r.Counter("dftsp_service_cache_hits_total",
		"Requests served from a completed in-memory cache entry.")
	s.misses = r.Counter("dftsp_service_cache_misses_total",
		"Requests that ran a SAT synthesis.")
	s.coalesced = r.Counter("dftsp_service_coalesced_total",
		"Requests that joined an in-flight synthesis instead of starting one.")
	s.failed = r.Counter("dftsp_service_failed_total",
		"Requests whose synthesis (own or awaited) failed.")
	s.diskHits = r.Counter("dftsp_service_disk_hits_total",
		"Requests served by decoding a stored protocol.")
	s.diskMisses = r.Counter("dftsp_service_disk_misses_total",
		"Store probes that found no usable entry.")
	s.storeWrites = r.Counter("dftsp_service_store_writes_total",
		"Protocols persisted to the store after synthesis.")
	s.writeFailures = r.Counter("dftsp_service_store_write_failures_total",
		"Persist attempts that failed; the request was still served.")
	s.preloaded = r.Counter("dftsp_service_preloaded_total",
		"Protocols loaded into memory by WarmStart.")
	s.shotsSampled = r.CounterVec("dftsp_service_shots_sampled_total",
		"Monte-Carlo shots executed by estimation requests.", "engine", "method")
	s.synthSeconds = r.Histogram("dftsp_synthesize_seconds",
		"Wall time of SAT protocol syntheses.", telemetry.LatencyBuckets)
	s.estSeconds = r.Histogram("dftsp_estimate_seconds",
		"Wall time of estimation requests, queueing for a pool slot included.",
		telemetry.LatencyBuckets)
	strata := r.CounterVec("dftsp_estimate_strata_total",
		"Estimation requests by whether their stratified fault-order curve was reused from the protocol (hit) or computed (miss).",
		"result")
	s.strataHits, s.strataMisses = strata.With("hit"), strata.With("miss")
	memo := r.CounterVec("dftsp_correction_memo_total",
		"Correction problems of syntheses by whether a remembered block answered them (hit) or they were solved (miss).",
		"result")
	for _, result := range []string{"hit", "miss"} {
		memo.With(result) // every series is exposed from the start
	}
	s.corrMemo = correct.NewMemo(func(result string) { memo.With(result).Inc() })
	r.Gauge("dftsp_service_workers",
		"Monte-Carlo workers per estimation job.").Set(float64(workers))
	r.GaugeFunc("dftsp_service_cache_entries",
		"Protocols currently cached in memory (completed or in flight).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.entries))
		})
	r.GaugeFunc("dftsp_service_shots_per_sec",
		"EWMA (alpha 0.3) of per-job Monte-Carlo sampling throughput.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.shotsPerSec
		})
	return s
}

// Metrics returns the service's telemetry registry, the single source of
// truth for every counter behind Stats. Servers expose it at /metrics and
// may register their own families (HTTP, admission control) on it.
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// Protocol returns the synthesized protocol for opts, serving it from the
// in-memory cache — or, with a store attached, from disk — when an
// identical request (same canonical key) was already synthesized. The
// second return reports whether the protocol came from a cache layer
// (memory, disk, or joining an in-flight synthesis) rather than a synthesis
// this call ran. Concurrent identical requests are coalesced: only the
// first probes the store and runs the SAT solver, the rest wait for its
// result. Failed syntheses are not cached, so transient failures can be
// retried.
//
// Cancelling ctx makes this call return ctx.Err() immediately; the
// underlying synthesis keeps running for the benefit of other waiters and
// is aborted only when no waiter remains.
func (s *Service) Protocol(ctx context.Context, opts Options) (*Protocol, bool, error) {
	key, err := opts.Key()
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		select {
		case <-e.ready:
			// Completed entry: a plain cache hit. Failed entries are
			// removed under mu before ready observers can see them here,
			// so a completed entry always holds a protocol.
			s.hits.Inc()
			s.mu.Unlock()
			return e.p, true, e.err
		default:
		}
		e.waiters++
		s.coalesced.Inc()
		s.mu.Unlock()
		return s.await(ctx, key, e, true)
	}

	e := &cacheEntry{ready: make(chan struct{}), waiters: 1}
	synthCtx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	s.entries[key] = e
	s.mu.Unlock()

	go s.fill(synthCtx, key, e, opts)
	return s.await(ctx, key, e, false)
}

// fill populates an in-flight cache entry: first from the persistent store
// when one is attached, otherwise by running the synthesis, and publishes
// the result. It runs detached from any single request context: synthCtx is
// cancelled only when every waiter has abandoned the entry. A panic deep
// in the synthesis stack is converted into an ErrSynthesis so one poisoned
// request cannot take the server down or hang the entry's waiters.
func (s *Service) fill(synthCtx context.Context, key string, e *cacheEntry, opts Options) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st != nil && s.fillFromStore(st, key, e) {
		e.cancel()
		return
	}

	s.misses.Inc()
	var p *Protocol
	var err error
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				p, err = nil, fmt.Errorf("%w: synthesis panicked: %v", ErrSynthesis, r)
			}
		}()
		p, err = synthesize(synthCtx, opts, s.corrMemo)
	}()
	s.synthSeconds.Observe(time.Since(start).Seconds())
	if st != nil && err == nil && p != nil && !st.ReadOnly() {
		// Persist before publishing so that by the time any request has
		// been answered the protocol is durable (and the stats already
		// reflect the write) — writes are small compared to SAT solving.
		// A read-only catalog skips the write-back entirely: it would only
		// fail, and the failure counter is for real persistence problems.
		s.writeBack(st, key, p)
	}
	s.mu.Lock()
	e.p, e.err = p, err
	if err != nil || p == nil {
		// Do not cache failures (incl. cancellations): the key must stay
		// retryable. Remove before closing ready so no future request can
		// observe a completed-but-failed entry — but only if the slot still
		// belongs to this entry (an abandoned entry may already have been
		// evicted and replaced by a fresh synthesis).
		if s.entries[key] == e {
			delete(s.entries, key)
		}
	}
	close(e.ready)
	s.mu.Unlock()
	e.cancel() // release the synthesis context's resources
}

// await blocks until the entry completes or ctx is cancelled. hit reports
// whether the caller joined existing work rather than initiating it; an
// entry filled from the persistent store upgrades the initiator's result to
// a cache hit too, since no synthesis ran on its behalf.
func (s *Service) await(ctx context.Context, key string, e *cacheEntry, hit bool) (*Protocol, bool, error) {
	select {
	case <-e.ready:
		s.mu.Lock()
		e.waiters--
		if e.err != nil {
			s.failed.Inc()
		}
		hit = hit || e.fromDisk
		s.mu.Unlock()
		return e.p, hit, e.err
	case <-ctx.Done():
		s.mu.Lock()
		e.waiters--
		if e.waiters == 0 {
			select {
			case <-e.ready:
				// Already finished; nothing to cancel.
			default:
				// Last waiter walks away: abort the SAT work and evict the
				// slot immediately, so a request arriving before the solver
				// observes the cancellation starts a fresh synthesis
				// instead of joining a doomed entry.
				e.cancel()
				if s.entries[key] == e {
					delete(s.entries, key)
				}
			}
		}
		s.mu.Unlock()
		return nil, false, ctx.Err()
	}
}

// Estimate synthesizes (or fetches) the protocol for opts and estimates its
// logical error rate. The bool reports whether the protocol came from the
// cache.
func (s *Service) Estimate(ctx context.Context, opts Options, eo EstimateOptions) (EstimateResult, bool, error) {
	p, hit, err := s.Protocol(ctx, opts)
	if err != nil {
		return EstimateResult{}, hit, err
	}
	res, err := s.EstimateProtocol(ctx, p, eo)
	return res, hit, err
}

// EstimateProtocol estimates a protocol the caller already holds, running
// the job under the service's bounded worker pool: at most jobs × workers
// sampling goroutines machine-wide, however many requests are in flight.
// Request-supplied worker counts are clamped to the service's per-job bound
// so no single request can oversubscribe the machine. A request cancelled
// while queued for a pool slot returns ctx.Err() without ever sampling.
func (s *Service) EstimateProtocol(ctx context.Context, p *Protocol, eo EstimateOptions) (EstimateResult, error) {
	if eo.Workers <= 0 || eo.Workers > s.workers {
		eo.Workers = s.workers
	}
	start := time.Now()
	select {
	case s.estSem <- struct{}{}:
	case <-ctx.Done():
		return EstimateResult{}, ctx.Err()
	}
	defer func() { <-s.estSem }()
	res, hit, err := p.estimate(ctx, eo)
	if err == nil {
		s.estSeconds.Observe(time.Since(start).Seconds())
		if hit {
			s.strataHits.Inc()
		} else {
			s.strataMisses.Inc()
		}
		shots := 0
		for _, pt := range res.Points {
			if pt.Shots == 0 {
				continue
			}
			shots += pt.Shots
			s.shotsSampled.With(res.Engine, pt.Method).Add(uint64(pt.Shots))
		}
		if shots > 0 {
			// MCSeconds covers the sampling loops alone, so the EWMA
			// reflects engine throughput rather than synthesis or
			// fault-enumeration overhead sharing the request.
			s.recordThroughput(shots, res.MCSeconds)
		}
	}
	return res, err
}

// recordThroughput folds one estimation job's Monte-Carlo volume into the
// service's throughput EWMA. (The cumulative shot counter lives on the
// registry and is incremented per point, with engine/method labels.)
func (s *Service) recordThroughput(shots int, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	rate := float64(shots) / elapsed
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shotsPerSec == 0 {
		s.shotsPerSec = rate
	} else {
		const alpha = 0.3
		s.shotsPerSec = alpha*rate + (1-alpha)*s.shotsPerSec
	}
}

// Stats returns a snapshot of the cache and store counters. Every value is
// read from the telemetry registry (or derived state guarded by the service
// mutex), so /stats and /metrics can never drift apart.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	entries := len(s.entries)
	perSec := s.shotsPerSec
	s.mu.Unlock()
	return ServiceStats{
		Entries:       entries,
		Hits:          s.hits.Value(),
		Misses:        s.misses.Value(),
		Coalesced:     s.coalesced.Value(),
		Failed:        s.failed.Value(),
		Workers:       s.workers,
		DiskHits:      s.diskHits.Value(),
		DiskMisses:    s.diskMisses.Value(),
		StoreWrites:   s.storeWrites.Value(),
		WriteFailures: s.writeFailures.Value(),
		Preloaded:     s.preloaded.Value(),
		ShotsSampled:  s.shotsSampled.Total(),
		ShotsPerSec:   perSec,
	}
}
