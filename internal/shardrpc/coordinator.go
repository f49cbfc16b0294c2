package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// DefaultTTL is the lease TTL used when Config.TTL is zero: long enough
// that a worker heartbeating at TTL/3 survives scheduling hiccups, short
// enough that a dead worker's shard is re-leased promptly.
const DefaultTTL = 15 * time.Second

// Typed protocol errors, mapped to HTTP statuses by the coordinator's
// handler and back again by the client.
var (
	// ErrClosed rejects protocol calls on a closed coordinator.
	ErrClosed = errors.New("shardrpc: coordinator closed")

	// ErrUnknownWorker rejects calls from a worker ID the coordinator does
	// not know (never registered, or pruned after going silent). Workers
	// recover by re-registering.
	ErrUnknownWorker = errors.New("shardrpc: unknown worker")

	// ErrLeaseLost rejects a heartbeat for a lease the worker no longer
	// holds — it expired and may have been re-leased. The worker must
	// abandon the shard.
	ErrLeaseLost = errors.New("shardrpc: lease lost")

	// ErrStaleCompletion rejects a completion whose fencing generation is
	// not the task's current lease — the zombie-worker guard that keeps an
	// expired lease's counts from ever double-counting a shard.
	ErrStaleCompletion = errors.New("shardrpc: stale completion")

	// ErrGarbageCompletion rejects a completion whose counts are
	// internally inconsistent or disagree with the task's exact expected
	// shot total; the shard is re-leased.
	ErrGarbageCompletion = errors.New("shardrpc: garbage completion")
)

// Config parameterizes a Coordinator.
type Config struct {
	// TTL is the lease TTL; zero selects DefaultTTL.
	TTL time.Duration

	// Now injects the clock for lease-deadline math. Leaving it nil
	// selects time.Now and starts a background expiry sweeper; tests
	// inject a fake clock and drive expiry explicitly with Tick, so
	// TTL tests never sleep real seconds.
	Now func() time.Time

	// Protocol serves the store encoding of a protocol by key to workers
	// that cannot resolve it locally; nil disables the protocol endpoint.
	Protocol func(key string) ([]byte, error)
}

// taskState is the lease state of one offered task.
type taskState int

const (
	taskPending taskState = iota // queued, claimable
	taskLeased                   // held under a live lease
	taskDone                     // settled: delivered (or aborted) exactly once
)

// task is the coordinator-side state of one offered shard. Settling a
// task drops its closures; only a task settled by a remote worker stays in
// the task table, as the tombstone that answers a duplicate completion.
type task struct {
	desc      Task
	localRun  func() (sim.Counts, error)
	deliver   func(sim.Counts, error)
	stopAbort func() bool // unregisters the Offer context's abort

	state      taskState
	gen        uint64 // increments on every grant; the fencing token
	holder     string // worker ID, or LocalHolder
	holderName string // registered worker name, for metrics
	deadline   time.Time
	grantedAt  time.Time

	// doneHolder and doneGen identify the accepted completion, so a
	// re-delivered duplicate from the same lease acknowledges idempotently
	// while anything else is stale.
	doneHolder string
	doneGen    uint64
	settledAt  time.Time
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	name     string
	lastSeen time.Time
}

// waiter is one parked lease long-poll: the 1-buffered channel a grant is
// deposited into, and the worker it belongs to. A parked poll is live
// evidence of its worker, so the liveness prune skips workers with waiters
// parked — otherwise a short lease TTL (and hence a short prune horizon)
// would reap workers whose only "silence" is waiting for work.
type waiter struct {
	ch     chan *Lease
	worker string
}

// Coordinator is a shard queue with a lease table: every offered task is
// pending until it is granted — to a remote worker's lease long-poll or to
// a local pool goroutine blocked in LeaseLocal — and every grant bumps the
// task's fencing generation, so exactly one holder delivers it. It also
// keeps the remote worker registry. Handler serves the remote side over
// HTTP; without it the coordinator is simply the in-process queue of the
// local pool. All methods are safe for concurrent use.
type Coordinator struct {
	cfg Config
	ttl time.Duration

	mu         sync.Mutex
	local      sync.Cond // signalled when a locally runnable task turns pending
	closed     bool
	workers    map[string]*workerState
	tasks      map[string]*task
	pending    []*task
	waiters    map[int]waiter
	nextWaiter int
	nextWorker int

	metrics coordMetrics

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator returns a coordinator with the given configuration. Close
// it when done; with a real clock (Config.Now nil) a background sweeper
// expires leases until then.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:     cfg,
		ttl:     cfg.TTL,
		workers: map[string]*workerState{},
		tasks:   map[string]*task{},
		waiters: map[int]waiter{},
	}
	c.local.L = &c.mu
	if c.ttl <= 0 {
		c.ttl = DefaultTTL
	}
	if cfg.Now == nil {
		c.sweepStop = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweep()
	}
	return c
}

// now reads the injected clock, defaulting to time.Now.
func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// sweep expires leases on a real-time ticker until Close.
func (c *Coordinator) sweep() {
	defer close(c.sweepDone)
	interval := c.ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Offer queues one task for execution and guarantees deliver is called
// exactly once — with the shard's counts, or with an error if ctx is
// cancelled first. The task goes to a parked remote lease poll if one is
// waiting, and is otherwise pending for the next remote Lease or, when
// localRun is non-nil, the next LeaseLocal.
func (c *Coordinator) Offer(ctx context.Context, desc Task, localRun func() (sim.Counts, error), deliver func(sim.Counts, error)) {
	t := &task{desc: desc, localRun: localRun, deliver: deliver}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		deliver(sim.Counts{}, ErrClosed)
		return
	}
	if ctx != nil {
		t.stopAbort = context.AfterFunc(ctx, func() { c.abort(t, ctx.Err()) })
	}
	c.tasks[desc.ID] = t
	c.enqueueLocked(t)
	c.mu.Unlock()
}

// enqueueLocked puts a task on the pending queue and hands it out: a
// parked lease long-poll, if any, is granted the task directly — under
// this same lock, so a waiting remote worker wins deterministically rather
// than racing the local pool for the wakeup (a race the remote side
// systematically loses on a single-P scheduler). Only when no poll is
// parked does the task stay pending and wake one LeaseLocal caller.
// Caller holds c.mu.
func (c *Coordinator) enqueueLocked(t *task) {
	t.state = taskPending
	c.pending = append(c.pending, t)
	for id, w := range c.waiters {
		ws, ok := c.workers[w.worker]
		if !ok {
			// The worker vanished (deregistered) while parked; wake the
			// poll so its client can re-register.
			delete(c.waiters, id)
			close(w.ch)
			continue
		}
		c.grantLocked(t, w.worker, ws.name)
		ws.lastSeen = c.now()
		w.ch <- &Lease{Task: t.desc, Gen: t.gen, TTLMs: c.ttl.Milliseconds()}
		delete(c.waiters, id)
		return
	}
	if t.localRun != nil {
		c.local.Signal()
	}
}

// LeaseLocal is the local pool's lease call. It blocks until a pending
// task with a local runner exists, grants it to LocalHolder through the
// same fenced path as a remote lease, and returns the function that runs
// the task and delivers its counts. The run no-ops when the task settled
// in between (an abort), so running it twice delivers once. ok is false
// once the coordinator is closed; the pool goroutine then exits.
func (c *Coordinator) LeaseLocal() (run func(), ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed {
		for _, t := range c.pending {
			if t.localRun != nil {
				c.grantLocked(t, LocalHolder, LocalHolder)
				return c.localRunner(t, t.gen), true
			}
		}
		c.local.Wait()
	}
	return nil, false
}

// localRunner runs a task granted to LocalHolder at generation gen and
// settles it, unless the lease is no longer held when the run starts or
// ends.
func (c *Coordinator) localRunner(t *task, gen uint64) func() {
	held := func() bool { return t.state == taskLeased && t.holder == LocalHolder && t.gen == gen }
	return func() {
		c.mu.Lock()
		run := t.localRun
		ok := held()
		c.mu.Unlock()
		if !ok {
			return
		}
		counts, err := run()
		c.mu.Lock()
		if !held() {
			// Aborted while running; the abort already delivered.
			c.mu.Unlock()
			return
		}
		deliver := c.settleLocked(t, LocalHolder, gen)
		c.mu.Unlock()
		deliver(counts, err)
	}
}

// grantLocked moves a pending task off the queue into the leased state
// under holder, bumping the fencing generation. Caller holds c.mu.
func (c *Coordinator) grantLocked(t *task, holder, holderName string) {
	c.dropPendingLocked(t)
	stolen := t.gen > 0
	t.state = taskLeased
	t.gen++
	t.holder = holder
	t.holderName = holderName
	t.grantedAt = c.now()
	t.deadline = t.grantedAt.Add(c.ttl)
	if holder != LocalHolder {
		c.metrics.leaseEvent("granted")
	}
	if stolen {
		c.metrics.leaseEvent("stolen")
	}
}

// settleLocked marks a task done and returns its deliver function, which
// the caller invokes outside the lock. A task a remote worker completed
// stays in the task table as a tombstone without its closures, so a
// duplicate of that completion is acknowledged; any other settled task —
// run locally, aborted or closed — leaves the table at once, and a late
// completion for it is stale. Caller holds c.mu.
func (c *Coordinator) settleLocked(t *task, holder string, gen uint64) func(sim.Counts, error) {
	deliver := t.deliver
	t.state = taskDone
	t.localRun, t.deliver = nil, nil
	if t.stopAbort != nil {
		t.stopAbort()
		t.stopAbort = nil
	}
	c.dropPendingLocked(t)
	if holder == "" || holder == LocalHolder {
		if c.tasks[t.desc.ID] == t {
			delete(c.tasks, t.desc.ID)
		}
		return deliver
	}
	t.doneHolder = holder
	t.doneGen = gen
	t.settledAt = c.now()
	return deliver
}

// dropPendingLocked removes a task from the pending queue if present.
func (c *Coordinator) dropPendingLocked(t *task) {
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// abort settles a task with an error (context cancellation, coordinator
// close) unless it already settled.
func (c *Coordinator) abort(t *task, err error) {
	c.mu.Lock()
	if t.state == taskDone {
		c.mu.Unlock()
		return
	}
	deliver := c.settleLocked(t, "", 0)
	c.mu.Unlock()
	deliver(sim.Counts{}, err)
}

// Register adds a worker under a coordinator-assigned ID and returns the ID
// and the lease TTL. Re-registering (after a pruned registration, say) just
// yields a fresh ID; stale IDs age out.
func (c *Coordinator) Register(name string) (string, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", 0, ErrClosed
	}
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{name: name, lastSeen: c.now()}
	c.metrics.workers.Set(float64(len(c.workers)))
	return id, c.ttl, nil
}

// Deregister removes a worker. Leases it still holds are left to expire
// normally (a graceful worker completes its shard before deregistering, so
// in the common case there are none).
func (c *Coordinator) Deregister(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[workerID]; ok {
		delete(c.workers, workerID)
		c.metrics.workers.Set(float64(len(c.workers)))
	}
}

// Lease grants the next pending task to the worker, long-polling up to
// wait for one to appear. It returns nil with a nil error when no task
// became available — the worker polls again.
func (c *Coordinator) Lease(workerID string, wait time.Duration) (*Lease, error) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		w, ok := c.workers[workerID]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
		}
		w.lastSeen = c.now()
		if len(c.pending) > 0 {
			t := c.pending[0]
			c.grantLocked(t, workerID, w.name)
			lease := &Lease{Task: t.desc, Gen: t.gen, TTLMs: c.ttl.Milliseconds()}
			c.mu.Unlock()
			return lease, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			c.mu.Unlock()
			return nil, nil
		}
		ch := make(chan *Lease, 1)
		id := c.nextWaiter
		c.nextWaiter++
		c.waiters[id] = waiter{ch: ch, worker: workerID}
		c.mu.Unlock()

		timer := time.NewTimer(remaining)
		select {
		case lease := <-ch:
			timer.Stop()
			if lease != nil {
				return lease, nil
			}
			// nil means the channel was closed (coordinator shutdown, or
			// the worker was forgotten while parked) — re-loop to report
			// the right error.
		case <-timer.C:
			c.mu.Lock()
			_, parked := c.waiters[id]
			delete(c.waiters, id)
			c.mu.Unlock()
			if !parked {
				// A grant was deposited concurrently with the timeout;
				// deposits happen before the waiter entry is removed, so
				// the lease (or a close) is already in the buffer.
				if lease := <-ch; lease != nil {
					return lease, nil
				}
			}
			return nil, nil
		}
	}
}

// Heartbeat renews a held lease, pushing its deadline out by one TTL. A
// heartbeat for a lease the worker no longer holds returns ErrLeaseLost.
func (c *Coordinator) Heartbeat(workerID, taskID string, gen uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = c.now()
	}
	t, ok := c.tasks[taskID]
	if !ok || t.state != taskLeased || t.holder != workerID || t.gen != gen {
		return ErrLeaseLost
	}
	t.deadline = c.now().Add(c.ttl)
	c.metrics.leaseEvent("renewed")
	return nil
}

// Complete accepts a finished shard's counts under the lease's fencing
// generation. It returns (duplicate, error): a re-delivered completion of
// the lease that already settled the task acknowledges idempotently with
// duplicate = true; a completion under any other generation returns
// ErrStaleCompletion and never reaches the job; counts failing the exact
// shot-total check return ErrGarbageCompletion and the shard is re-leased.
func (c *Coordinator) Complete(workerID, taskID string, gen uint64, counts sim.Counts) (bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false, ErrClosed
	}
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = c.now()
	}
	t, ok := c.tasks[taskID]
	if !ok {
		c.mu.Unlock()
		c.metrics.stale.Inc()
		return false, fmt.Errorf("%w: unknown task %q", ErrStaleCompletion, taskID)
	}
	switch {
	case t.state == taskDone && t.doneHolder == workerID && t.doneGen == gen && gen != 0:
		c.mu.Unlock()
		return true, nil
	case t.state != taskLeased || t.holder != workerID || t.gen != gen:
		c.mu.Unlock()
		c.metrics.stale.Inc()
		return false, fmt.Errorf("%w: task %s is not held by %s at generation %d",
			ErrStaleCompletion, taskID, workerID, gen)
	}
	if err := validateCounts(t.desc, counts); err != nil {
		// The worker produced garbage for a lease it legitimately held:
		// revoke the lease and put the shard back on the queue.
		c.metrics.garbage.Inc()
		c.enqueueLocked(t)
		c.mu.Unlock()
		return false, err
	}
	elapsed := c.now().Sub(t.grantedAt).Seconds()
	name := t.holderName
	deliver := c.settleLocked(t, workerID, gen)
	c.mu.Unlock()
	c.metrics.shardSeconds(name, elapsed)
	deliver(counts, nil)
	return false, nil
}

// validateCounts checks a completion's counts against the task's exact
// expected shot total and the shape sim requires of counts sampled under
// the task's sampling (sim.Counts.Validate): a rare task conditioned on k
// faults has no stratum below k.
func validateCounts(desc Task, counts sim.Counts) error {
	if want := desc.ExpectedShots(); counts.Shots != want {
		return fmt.Errorf("%w: %d shots, task requires exactly %d", ErrGarbageCompletion, counts.Shots, want)
	}
	// A task's sampling is resolved by its producer; an unparseable method
	// validates as a non-rare one, whose counts carry no strata.
	s, _ := desc.Sampling()
	if err := counts.Validate(s); err != nil {
		return fmt.Errorf("%w: %v", ErrGarbageCompletion, err)
	}
	return nil
}

// Tick runs one expiry pass with the current clock: leases past their
// deadline return to the queue (and count as expired), settled-task
// tombstones and silent workers age out. The background sweeper calls it
// periodically; tests with an injected clock call it directly.
func (c *Coordinator) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	now := c.now()
	for _, t := range c.tasks {
		if t.state == taskLeased && t.holder != LocalHolder && now.After(t.deadline) {
			c.metrics.leaseEvent("expired")
			c.enqueueLocked(t)
		}
		if t.state == taskDone && now.Sub(t.settledAt) > 10*c.ttl {
			delete(c.tasks, t.desc.ID)
		}
	}
	parked := map[string]bool{}
	for _, w := range c.waiters {
		parked[w.worker] = true
	}
	pruned := false
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > 4*c.ttl && !parked[id] {
			delete(c.workers, id)
			pruned = true
		}
	}
	if pruned {
		c.metrics.workers.Set(float64(len(c.workers)))
	}
}

// Stats reports the connected-worker count and the number of leases
// currently held by remote workers.
func (c *Coordinator) Stats() (workers, leases int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tasks {
		if t.state == taskLeased && t.holder != LocalHolder {
			leases++
		}
	}
	return len(c.workers), leases
}

// Idle reports the number of lease long-polls currently parked for a
// still-registered worker — remote capacity waiting for work. The next
// tasks offered are granted straight to these polls; a nonzero Idle
// therefore guarantees a connected worker wins the next shard, which is
// also what tests synchronize on before submitting work meant for a
// remote worker. A poll abandoned by a deregistered worker does not
// count (it can never be granted anything).
func (c *Coordinator) Idle() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	idle := 0
	for _, w := range c.waiters {
		if _, ok := c.workers[w.worker]; ok {
			idle++
		}
	}
	return idle
}

// Pending reports the number of offered tasks that no one holds yet: the
// depth of the shard queue.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// JobLeases reports how many of a job's shards are currently leased to
// remote workers — the number a drain waits to see reach zero.
func (c *Coordinator) JobLeases(job string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.tasks {
		if t.state == taskLeased && t.holder != LocalHolder && t.desc.Job == job {
			n++
		}
	}
	return n
}

// Close shuts the coordinator down: the sweeper stops, every unsettled
// task aborts with ErrClosed, long-polling leases return, and all further
// protocol calls fail with ErrClosed. Jobs quiesce before the coordinator
// closes (the runner orders it so), so in the normal path there is nothing
// left to abort and every checkpointed shard stays durable — the job
// remains resumable.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for id, w := range c.waiters {
		delete(c.waiters, id)
		close(w.ch)
	}
	c.local.Broadcast()
	var orphans []func(sim.Counts, error)
	for _, t := range c.tasks {
		if t.state != taskDone {
			orphans = append(orphans, c.settleLocked(t, "", 0))
		}
	}
	c.mu.Unlock()
	for _, deliver := range orphans {
		deliver(sim.Counts{}, ErrClosed)
	}
	if c.sweepStop != nil {
		close(c.sweepStop)
		<-c.sweepDone
	}
}
