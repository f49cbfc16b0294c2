package jobs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/noise"
	"repro/internal/shardrpc"
	"repro/internal/sim"
)

// Job lifecycle states reported by Status.State.
const (
	// StateRunning marks a job with a live coordinator in this process.
	StateRunning = "running"

	// StatePaused marks a job that is checkpointed on disk but not
	// currently executing — a quiesced shutdown, or a job found on disk
	// that no runner has resumed. Submitting its spec resumes it.
	StatePaused = "paused"

	// StateDone marks a job that ran every point to completion.
	StateDone = "done"

	// StateCancelled marks a job stopped by an explicit Cancel. Its
	// durable checkpoints remain; submitting its spec resumes it.
	StateCancelled = "cancelled"

	// StateFailed marks a job whose coordinator hit a non-recoverable
	// error (see Status.Error). Submitting its spec retries it.
	StateFailed = "failed"
)

// PointStatus is the reported state of one job point: the raw durable
// counts plus, once any shots exist, the statistics recomputed from them
// exactly as a single-process estimate would report them.
type PointStatus struct {
	// Point is the point index in the spec's rate grid, and Rate its
	// physical error rate.
	Point int     `json:"point"`
	Rate  float64 `json:"rate"`

	// Done marks the point finished.
	Done bool `json:"done"`

	// Method is the resolved sampling method ("direct" or "rare"); empty
	// until the point has started.
	Method string `json:"method,omitempty"`

	// MinFaults is a rare point's conditioning k when it is 2 (every shot
	// held at least two faults); omitted when 1.
	MinFaults int `json:"min_faults,omitempty"`

	// Shots and Fails are the durable pooled counts of the point.
	Shots int64 `json:"shots"`
	Fails int64 `json:"fails"`

	// PL, RSE, CILo and CIHi are the estimate and its statistics
	// recomputed from the pooled counts (sim.Counts.ResultModel); present
	// whenever Shots > 0.
	PL   float64 `json:"pl,omitempty"`
	RSE  float64 `json:"rse,omitempty"`
	CILo float64 `json:"ci_lo,omitempty"`
	CIHi float64 `json:"ci_hi,omitempty"`

	// CondP, EffSamples and WeightVar are the rare-event diagnostics; for
	// direct points CondP is 1 and EffSamples equals Shots.
	CondP      float64 `json:"cond_p,omitempty"`
	EffSamples float64 `json:"effective_samples,omitempty"`
	WeightVar  float64 `json:"weight_variance,omitempty"`
}

// Status is the reported state of a job.
type Status struct {
	// ID is the job's content address and Spec its normalized spec.
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`

	// State is the lifecycle state: running, paused, done, cancelled or
	// failed.
	State string `json:"state"`

	// Points reports every started point, in grid order.
	Points []PointStatus `json:"points"`

	// Shots is the total durable shot count across all points.
	Shots int64 `json:"shots"`

	// Remote reports the remote worker fleet when the runner has an active
	// workers listener — connected workers and this job's outstanding
	// leases; nil without a workers listener.
	Remote *RemoteStatus `json:"remote,omitempty"`

	// Error carries the failure cause when State is failed.
	Error string `json:"error,omitempty"`
}

// Event is one entry of a job's progress feed.
type Event struct {
	// Type is the event kind: "started", "shard" (one shard checkpointed),
	// "point" (one point finished), and the terminal "done", "paused",
	// "cancelled" or "failed".
	Type string `json:"type"`

	// Job is the job ID the event belongs to.
	Job string `json:"job"`

	// Point locates shard and point events on the rate grid; Round and
	// Shard additionally locate shard events on the block grid. Shards
	// commit in the order they finish, so the "shard" events of a
	// fixed-budget point, whose shards run ahead of its round boundaries,
	// may arrive out of (Round, Shard) order; an adaptive point's events
	// still arrive round by round.
	Point int `json:"point"`
	Round int `json:"round,omitempty"`
	Shard int `json:"shard,omitempty"`

	// Shots is the job's total durable shot count after the event; the
	// "shard" events of one batch commit all report the total after it.
	Shots int64 `json:"shots,omitempty"`

	// Result carries the finished point's statistics on "point" events.
	Result *PointStatus `json:"result,omitempty"`

	// Error carries the failure cause on "failed" events.
	Error string `json:"error,omitempty"`
}

// Resolver maps a protocol key to an estimator for that protocol. The
// runner calls it once per job start and only reads the estimator, so a
// resolver may return one it shares with other jobs and requests. dftsp
// supplies a resolver backed by its protocol cache and store.
type Resolver func(ctx context.Context, protocolKey string) (*sim.Estimator, error)

// errQuiesced stops a coordinator from offering further shards during a
// graceful shutdown; once its outstanding shards are checkpointed the job
// is left paused and resumable.
var errQuiesced = errors.New("jobs: runner quiescing")

// shardQueue is the side of the shard queue a job's coordinator uses:
// Offer queues one shard and calls deliver exactly once with its counts or
// an error, as shardrpc.Coordinator.Offer does.
type shardQueue interface {
	Offer(ctx context.Context, desc shardrpc.Task, localRun func() (sim.Counts, error), deliver func(sim.Counts, error))
}

// Runner executes jobs from a store on a shared local worker pool. Every
// job gets one coordinator goroutine that walks its points and offers
// their shards to one shard queue, a shardrpc.Coordinator, keeping at most
// window of them outstanding within the point's horizon (one round for an
// adaptive point, the whole point for a fixed budget); the pool's
// goroutines lease from that queue, so an idle worker always takes the
// next shard from whichever job produced it. StartRemote serves the same
// queue to remote workers. Checkpoint appends happen only on the job's
// coordinator goroutine, one batch of finished shards per write and
// fsync, so each job file has exactly one writer.
type Runner struct {
	store   *Store
	resolve Resolver
	workers int

	// queue is the lease coordinator every shard passes through, with or
	// without remote workers. remoteAddr is the listen address for remote
	// worker replicas (the server's -workers-addr flag); StartRemote serves
	// the queue's lease protocol there, answering protocol fetches with
	// protocol. Empty keeps the queue in-process.
	queue      *shardrpc.Coordinator
	offers     shardQueue // where coordinators offer shards: queue, or a test stub
	remoteAddr string
	protocol   func(key string) ([]byte, error)
	remoteLn   net.Listener
	remoteSrv  *http.Server

	quiesce chan struct{}
	metrics runnerMetrics // zero value: uninstrumented, all no-ops

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool

	jobWG    sync.WaitGroup
	workerWG sync.WaitGroup
}

// job is the in-memory side of one running (or terminally settled) job.
type job struct {
	id   string
	spec Spec

	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     string
	cancelled bool
	err       error
	points    map[int]PointState
	subs      map[int]chan Event
	nextSub   int
}

// NewRunner returns a runner executing jobs from store with the given
// local worker count (<= 0 selects sim.DefaultWorkers()). It creates the
// runner's shard queue and starts the pool leasing from it. remoteAddr is
// the listen address for remote worker replicas, which StartRemote opens;
// empty keeps every shard on the local pool.
func NewRunner(store *Store, resolve Resolver, workers int, remoteAddr string) *Runner {
	if workers <= 0 {
		workers = sim.DefaultWorkers()
	}
	r := &Runner{
		store:      store,
		resolve:    resolve,
		workers:    workers,
		remoteAddr: remoteAddr,
		quiesce:    make(chan struct{}),
		jobs:       map[string]*job{},
	}
	r.queue = shardrpc.NewCoordinator(shardrpc.Config{TTL: leaseTTL(), Protocol: r.encodedProtocol})
	r.offers = r.queue
	for w := 0; w < workers; w++ {
		r.workerWG.Add(1)
		go func() {
			defer r.workerWG.Done()
			for {
				run, ok := r.queue.LeaseLocal()
				if !ok {
					return
				}
				run()
			}
		}()
	}
	return r
}

// Store returns the job store the runner executes from.
func (r *Runner) Store() *Store { return r.store }

// Submit starts (or resumes) the job for spec and returns its status. A
// spec that normalizes to an already-running job attaches to it instead of
// starting a second execution; a job already complete on disk returns its
// finished status without running anything. A previously failed or
// cancelled job is resubmitted from its durable checkpoints.
func (r *Runner) Submit(spec Spec) (Status, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	id := spec.ID()

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Status{}, ErrClosed
	}
	if j, ok := r.jobs[id]; ok {
		st := j.status()
		if st.State == StateRunning || st.State == StateDone {
			r.mu.Unlock()
			return st, nil
		}
		// Terminal but resumable (paused, cancelled, failed): drop the
		// settled entry and start a fresh coordinator below.
		delete(r.jobs, id)
	}

	lg, st, err := r.store.Create(spec)
	if err != nil {
		r.mu.Unlock()
		return Status{}, err
	}
	if st.Done {
		r.mu.Unlock()
		lg.Close()
		return statusFromState(st, StateDone), nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:     id,
		spec:   st.Spec,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  StateRunning,
		points: map[int]PointState{},
		subs:   map[int]chan Event{},
	}
	for i, ps := range st.Points {
		j.points[i] = ps
	}
	r.jobs[id] = j
	r.jobWG.Add(1)
	r.mu.Unlock()

	r.metrics.running.Add(1)
	go r.run(ctx, j, lg, st)
	return j.status(), nil
}

// Job returns the status of the job with the given ID, whether it is
// running in this process or only present on disk.
func (r *Runner) Job(id string) (Status, error) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if ok {
		return r.annotate(j.status()), nil
	}
	st, err := r.store.Load(id)
	if err != nil {
		return Status{}, err
	}
	state := StatePaused
	if st.Done {
		state = StateDone
	}
	return r.annotate(statusFromState(st, state)), nil
}

// Jobs lists the status of every job the runner knows about: running jobs
// from memory, the rest folded from disk, sorted by ID.
func (r *Runner) Jobs() ([]Status, error) {
	entries, err := r.store.List()
	if err != nil {
		return nil, err
	}
	out := make([]Status, 0, len(entries))
	for _, e := range entries {
		st, err := r.Job(e.ID)
		if err != nil {
			continue // deleted or corrupted since listing; skip like List does
		}
		out = append(out, st)
	}
	return out, nil
}

// Cancel stops the job with the given ID. In-flight shards are abandoned
// (their partial counts are never checkpointed); everything already
// durable remains, so submitting the same spec later resumes the job.
// Cancelling a job that is not running returns ErrNotFound.
func (r *Runner) Cancel(id string) error {
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q is not running", ErrNotFound, id)
	}
	j.mu.Lock()
	if j.state == StateRunning {
		j.cancelled = true
	}
	j.mu.Unlock()
	j.cancel()
	<-j.done
	return nil
}

// Watch subscribes to the job's progress events. The channel receives
// events from the moment of subscription on and is closed when the job
// reaches a terminal state (or immediately, if it is not running); the
// returned stop function detaches early. Events are progress hints and may
// be dropped under backpressure — Job(id) is the authoritative state.
func (r *Runner) Watch(id string) (<-chan Event, func(), error) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		if _, err := r.store.Load(id); err != nil {
			return nil, nil, err
		}
		ch := make(chan Event)
		close(ch)
		return ch, func() {}, nil
	}
	return j.subscribe()
}

// ResumeAll submits every unfinished job found in the store — the boot
// step that makes a restart pick up where the killed process stopped — and
// returns the statuses of the jobs it resumed. Jobs that fail to resume
// (for example because their protocol is no longer resolvable) are
// reported in the joined error but do not stop the sweep.
func (r *Runner) ResumeAll() ([]Status, error) {
	entries, err := r.store.List()
	if err != nil {
		return nil, err
	}
	var out []Status
	var errs []error
	for _, e := range entries {
		st, err := r.store.Load(e.ID)
		if err != nil || st.Done {
			continue
		}
		status, err := r.Submit(st.Spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("resume %s: %w", e.ID, err))
			continue
		}
		r.metrics.resumed.Inc()
		out = append(out, status)
	}
	return out, errors.Join(errs...)
}

// Close shuts the runner down gracefully: no new shards are offered,
// the shards each job has outstanding run to completion and are
// checkpointed, and coordinators exit once their window has drained,
// leaving their jobs paused on disk. A shard leased to a remote worker
// either completes in time or its lease expires and the local pool
// finishes it — either way the window drains and the job quiesces
// resumable; the workers listener and the shard queue shut down only after
// every job has settled.
// If ctx expires first, remaining jobs are cancelled hard — their in-flight
// partial counts are discarded, which is always safe because only completed
// shards are ever written. Close returns ctx.Err() in that case.
func (r *Runner) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.quiesce)
	r.mu.Unlock()

	done := make(chan struct{})
	go func() {
		r.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.mu.Lock()
		for _, j := range r.jobs {
			j.cancel()
		}
		r.mu.Unlock()
		<-done
	}
	// Jobs have settled; only now close the listener and the queue, so
	// in-flight lease completions could land until every window drained.
	// Closing the queue ends the pool's LeaseLocal loops.
	if r.remoteSrv != nil {
		r.remoteSrv.Close()
	}
	r.queue.Close()
	r.workerWG.Wait()
	return err
}

// run is the coordinator goroutine of one job.
func (r *Runner) run(ctx context.Context, j *job, lg *Log, st State) {
	defer r.jobWG.Done()
	defer lg.Close()
	defer j.cancel()
	defer r.metrics.running.Add(-1)

	err := r.execute(ctx, j, lg, &st)

	j.mu.Lock()
	var ev Event
	switch {
	case err == nil:
		j.state = StateDone
		ev = Event{Type: "done", Job: j.id, Shots: totalShots(j.points)}
	case errors.Is(err, errQuiesced),
		errors.Is(err, context.Canceled) && !j.cancelled:
		// A quiesced shutdown, or a hard Close cancel: the job is intact
		// on disk and resumes on the next submit.
		j.state = StatePaused
		ev = Event{Type: "paused", Job: j.id, Shots: totalShots(j.points)}
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		ev = Event{Type: "cancelled", Job: j.id, Shots: totalShots(j.points)}
	default:
		j.state = StateFailed
		j.err = err
		ev = Event{Type: "failed", Job: j.id, Error: err.Error()}
	}
	j.emitLocked(ev)
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = map[int]chan Event{}
	j.mu.Unlock()
	close(j.done)
}

// execute walks the job's points and rounds until the job completes, the
// context is cancelled, or the runner quiesces.
func (r *Runner) execute(ctx context.Context, j *job, lg *Log, st *State) error {
	spec := st.Spec
	est, err := r.resolve(ctx, spec.ProtocolKey)
	if err != nil {
		return fmt.Errorf("resolve protocol: %w", err)
	}
	eng, _ := sim.ParseEngine(spec.Engine)
	if est, err = est.WithEngine(eng); err != nil {
		return err
	}
	reqMethod, _ := sim.ParseMethod(spec.Method) // validated with the spec
	target, budget := spec.Budget()
	totalBlocks := sim.NumBlocks(budget)

	// A point's horizon is how far its shards may run ahead of its
	// stopping rule. An adaptive point reads its pool at every round
	// boundary, so its horizon is one round; a fixed-budget point never
	// stops early, so its horizon is the whole point and nothing waits for
	// a round's last checkpoint.
	horizon := totalBlocks
	if target > 0 {
		horizon = sim.BlocksPerRound
	}
	x := &execution{r: r, j: j, lg: lg, st: st, est: est, results: make(chan shardResult, window)}

	j.emit(Event{Type: "started", Job: j.id, Shots: totalShots(j.points)})

	for i, rate := range spec.Rates {
		if ps, ok := st.Points[i]; ok && ps.Done {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		// A new point resolves its sampling once and records it; a
		// started point samples exactly as recorded. A started point whose
		// shards come from another stream than this build draws keeps its
		// sampling but restarts from shard 0 under a new start record.
		model := spec.Model(rate)
		ps, ok := st.Points[i]
		if !ok {
			s, err := est.Resolve(reqMethod, model)
			if err != nil {
				return err
			}
			ps = PointState{Point: i, Rate: rate, Method: s.Method.String()}
			if s.Method == sim.MethodRare {
				counts := est.ClassCounts()
				ps.Locations = counts[0] + counts[1] + counts[2]
				if spec.Biased() {
					ps.ClassCounts = counts[:]
				}
				if s.MinFaults == 2 {
					ps.MinFaults, ps.CondP = 2, s.CondP
				}
			}
		}
		if !ok || ps.Stream != est.Stream() {
			ps.Stream, ps.Counts = est.Stream(), sim.Counts{}
			if err := lg.Append(Record{Kind: "point", Point: i, State: &ps}); err != nil {
				return err
			}
			st.setPoint(ps)
			j.setPoint(ps)
		}
		// Every shard task of the point is this one with its block range
		// and grid coordinates filled in. It carries the resolved engine
		// and the point's recorded sampling so a worker samples the
		// identical stream.
		base := shardrpc.Task{
			Job:         j.id,
			Point:       i,
			ProtocolKey: spec.ProtocolKey,
			Engine:      est.EngineInUse().String(),
			Method:      ps.Method,
			MinFaults:   ps.MinFaults,
			Model:       model,
			Seed:        sim.PointSeed(spec.Seed, i),
			Budget:      budget,
		}

		// pooled is the running pool of the point's shards, the same
		// integers as pooling every part at once, in any order.
		var pooled sim.Counts
		for start := 0; start < totalBlocks; start += horizon {
			if err := x.runShards(ctx, &ps, &pooled, base, start, min(start+horizon, totalBlocks)); err != nil {
				return err
			}
			// The stopping rule, evaluated at the same round boundaries
			// and from the same pooled integers as the in-process
			// estimator — the invariant that keeps a sharded job
			// bit-identical to a single-process run.
			if pooled.Converged(target) {
				break
			}
		}

		ps.Counts = pooled
		ps.Done = true
		if err := lg.Append(Record{Kind: "point", Point: i, State: &ps}); err != nil {
			return err
		}
		st.Points[i] = ps
		j.setPoint(ps)
		pst := pointStatus(spec, ps)
		j.emit(Event{Type: "point", Job: j.id, Point: i, Shots: totalShots(j.snapshotPoints()), Result: &pst})
	}

	if err := lg.Append(Record{Kind: "done"}); err != nil {
		return err
	}
	st.Done = true
	return nil
}

// window is the most shards a job keeps offered and not yet durable: two
// rounds' worth, so a fixed-budget point offers round r+1 while round r's
// checkpoints commit, and jobs sharing the queue still take turns on it.
const window = 2 * sim.BlocksPerRound / ShardBlocks

// shardResult is one delivered shard: its grid coordinates within the
// point, and its counts or the error it ended with.
type shardResult struct {
	round, shard int
	counts       sim.Counts
	err          error
}

// execution is the working state of one job's coordinator goroutine.
type execution struct {
	r   *Runner
	j   *job
	lg  *Log
	st  *State
	est *sim.Estimator

	// results receives the offered shards' deliveries. At most window
	// shards are outstanding, so a delivery never blocks.
	results chan shardResult

	// batch and recs hold one commit's results and records; both are
	// reused from commit to commit.
	batch []shardResult
	recs  []Record
}

// runShards runs every shard of the point in blocks [start, end) that the
// log does not hold yet. It keeps at most window shards outstanding and
// commits the finished ones in batches: it waits for one delivery, takes
// every other one already delivered, and appends their records with one
// write and one fsync. Shards that finished commit even when a sibling
// failed, so durable progress survives the error. On cancellation or
// quiesce it stops offering and drains what is outstanding. It returns the
// first error once nothing is outstanding.
func (x *execution) runShards(ctx context.Context, ps *PointState, pooled *sim.Counts, base shardrpc.Task, start, end int) error {
	var firstErr error
	outstanding := 0
	b0 := start
	for {
		for ; b0 < end && outstanding < window && firstErr == nil; b0 += ShardBlocks {
			t := base
			t.Round, t.Shard = b0/sim.BlocksPerRound, b0%sim.BlocksPerRound/ShardBlocks
			if c, ok := x.st.Shards[ShardKey{Point: t.Point, Round: t.Round, Shard: t.Shard}]; ok {
				*pooled = sim.PoolCounts(*pooled, c) // already durable; never re-run
				continue
			}
			if firstErr = x.stopped(ctx); firstErr != nil {
				break
			}
			t.ID = shardrpc.TaskID(t.Job, t.Point, t.Round, t.Shard)
			t.Block0, t.Block1 = b0, min(b0+ShardBlocks, end)
			x.offer(ctx, t)
			outstanding++
		}
		if outstanding == 0 {
			return firstErr
		}
		x.batch = append(x.batch[:0], <-x.results)
	more:
		for len(x.batch) < outstanding {
			select {
			case res := <-x.results:
				x.batch = append(x.batch, res)
			default:
				break more
			}
		}
		outstanding -= len(x.batch)
		if err := x.commit(ps, pooled); err != nil && firstErr == nil {
			firstErr = err
		}
	}
}

// stopped reports why no further shard may be offered: the job's context
// ended or the runner is quiescing.
func (x *execution) stopped(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-x.r.quiesce:
		return errQuiesced
	default:
		return nil
	}
}

// offer puts one shard on the runner's queue. The queue guarantees exactly
// one delivery, fenced by lease generation, whether the local pool or a
// remote worker runs the shard.
func (x *execution) offer(ctx context.Context, t shardrpc.Task) {
	run := func() (sim.Counts, error) {
		start := time.Now()
		defer func() { x.r.metrics.shardSeconds.Observe(time.Since(start).Seconds()) }()
		return t.Run(ctx, x.est)
	}
	deliver := func(counts sim.Counts, err error) {
		x.results <- shardResult{round: t.Round, shard: t.Shard, counts: counts, err: err}
	}
	x.r.offers.Offer(ctx, t, run, deliver)
}

// commit appends the records of the batch's finished shards as one batch
// and, once they are durable, pools them into the point, publishes the
// point's state and emits one "shard" event each. It returns the first
// error of the batch or of the append.
func (x *execution) commit(ps *PointState, pooled *sim.Counts) error {
	var firstErr error
	x.recs = x.recs[:0]
	for k := range x.batch {
		res := &x.batch[k]
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		x.recs = append(x.recs, Record{Kind: "shard", Point: ps.Point, Round: res.round, Shard: res.shard, Counts: &res.counts})
	}
	if len(x.recs) == 0 {
		return firstErr
	}
	if err := x.lg.Append(x.recs...); err != nil {
		return err
	}
	x.r.metrics.commits.Inc()
	x.r.metrics.shards.Add(uint64(len(x.recs)))
	for _, rec := range x.recs {
		x.st.Shards[ShardKey{Point: rec.Point, Round: rec.Round, Shard: rec.Shard}] = *rec.Counts
		*pooled = sim.PoolCounts(*pooled, *rec.Counts)
	}
	ps.Counts = *pooled
	x.st.Points[ps.Point] = *ps
	x.j.setPoint(*ps)
	shots := totalShots(x.j.snapshotPoints())
	for _, rec := range x.recs {
		x.j.emit(Event{Type: "shard", Job: x.j.id, Point: rec.Point, Round: rec.Round, Shard: rec.Shard, Shots: shots})
	}
	return firstErr
}

// status snapshots the job's reported state.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := Status{ID: j.id, Spec: j.spec, State: j.state, Shots: totalShots(j.points)}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	out.Points = pointStatuses(j.spec, j.points)
	return out
}

// setPoint publishes a point's durable state to status readers.
func (j *job) setPoint(ps PointState) {
	j.mu.Lock()
	j.points[ps.Point] = ps
	j.mu.Unlock()
}

// snapshotPoints copies the live point map.
func (j *job) snapshotPoints() map[int]PointState {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]PointState, len(j.points))
	for i, ps := range j.points {
		out[i] = ps
	}
	return out
}

// subscribe attaches a new event channel to the job.
func (j *job) subscribe() (<-chan Event, func(), error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}, nil
	}
	ch := make(chan Event, 256)
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	stop := func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, stop, nil
}

// emit broadcasts an event to all subscribers, dropping it for any
// subscriber whose buffer is full (events are hints; Status is
// authoritative).
func (j *job) emit(ev Event) {
	j.mu.Lock()
	j.emitLocked(ev)
	j.mu.Unlock()
}

func (j *job) emitLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// statusFromState renders a folded on-disk state as a Status.
func statusFromState(st State, state string) Status {
	return Status{
		ID:     st.ID,
		Spec:   st.Spec,
		State:  state,
		Points: pointStatuses(st.Spec, st.Points),
		Shots:  totalShots(st.Points),
	}
}

// pointStatuses renders every grid point, started or not, in grid order.
func pointStatuses(spec Spec, points map[int]PointState) []PointStatus {
	out := make([]PointStatus, len(spec.Rates))
	for i, rate := range spec.Rates {
		if ps, ok := points[i]; ok {
			out[i] = pointStatus(spec, ps)
		} else {
			out[i] = PointStatus{Point: i, Rate: rate}
		}
	}
	return out
}

// pointStatus derives a point's reported statistics from its durable
// counts via the shared finisher, so the job layer reports exactly what an
// in-process estimate of the same counts would. Biased specs finish
// rare-event counts with the point's durable per-class location counts; a
// uniform point stores only its location total and passes it as a single
// class, since under equal class rates only the total matters. A k = 1
// rare point's conditioning weight follows from those counts, a k = 2
// point's is its recorded CondP. A biased rare point missing its class
// counts (which no writer produces) reports raw counts only.
func pointStatus(spec Spec, ps PointState) PointStatus {
	out := PointStatus{
		Point:     ps.Point,
		Rate:      ps.Rate,
		Done:      ps.Done,
		Method:    ps.Method,
		MinFaults: ps.MinFaults,
		Shots:     ps.Counts.Shots,
		Fails:     ps.Counts.Fails,
	}
	method, err := sim.ParseMethod(ps.Method)
	if err != nil || ps.Counts.Shots <= 0 {
		return out
	}
	counts := [3]int{ps.Locations}
	if len(ps.ClassCounts) == 3 {
		counts = [3]int(ps.ClassCounts)
	} else if spec.Biased() && method == sim.MethodRare {
		return out
	}
	model := spec.Model(ps.Rate)
	s := sim.Sampling{Method: method, MinFaults: ps.MinFaults, CondP: ps.CondP}
	if method == sim.MethodRare && ps.MinFaults <= 1 {
		s.CondP = noise.CondProbModel(model, counts)
	}
	res, err := ps.Counts.ResultModel(s, model, counts)
	if err != nil {
		return out
	}
	out.PL = res.PL
	out.RSE = res.RSE
	out.CILo, out.CIHi = res.CILo, res.CIHi
	out.CondP = res.CondP
	out.EffSamples = res.EffectiveSamples
	out.WeightVar = res.WeightVariance
	return out
}

// totalShots sums the durable shots across points.
func totalShots(points map[int]PointState) int64 {
	var total int64
	for _, ps := range points {
		total += ps.Counts.Shots
	}
	return total
}
