package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"blinkml/internal/obs"
	"blinkml/internal/store"
)

// Config sizes a Coordinator. Zero values take the documented defaults.
type Config struct {
	// HeartbeatInterval is how often workers are told to heartbeat
	// (default 2s; tests use milliseconds).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// declared dead and its leases are requeued (default 3×interval).
	HeartbeatTimeout time.Duration
	// MaxAttempts caps how many leases one task may consume before it fails
	// with a TaskError (default 3).
	MaxAttempts int
	// SweepInterval is the liveness-check period (default
	// HeartbeatInterval/2, floored at 10ms).
	SweepInterval time.Duration
	// Logger receives worker join/loss and task requeue/failure events.
	// Nil discards (tests).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.HeartbeatInterval
	}
	// The timeout must leave room for several heartbeats, or every worker
	// would be reaped before its first one (an operator setting only
	// -cluster-heartbeat-timeout can otherwise put the timeout below the
	// default interval). The interval yields: the operator's timeout keeps
	// its meaning, and workers are simply told to heartbeat fast enough.
	if c.HeartbeatInterval > c.HeartbeatTimeout/3 {
		c.HeartbeatInterval = c.HeartbeatTimeout / 3
		if c.HeartbeatInterval < 10*time.Millisecond {
			c.HeartbeatInterval = 10 * time.Millisecond
		}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.HeartbeatInterval / 2
		if c.SweepInterval < 10*time.Millisecond {
			c.SweepInterval = 10 * time.Millisecond
		}
	}
	return c
}

// Coordinator errors.
var (
	ErrClosed        = errors.New("cluster: coordinator is closed")
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	ErrUnknownTask   = errors.New("cluster: unknown task")
	ErrStaleLease    = errors.New("cluster: stale lease")
)

// Task states.
const (
	taskPending   = "pending"
	taskLeased    = "leased"
	taskSucceeded = "succeeded"
	taskFailed    = "failed"
	taskCancelled = "cancelled"
)

// task is the coordinator-side record of one schedulable unit.
type task struct {
	id   string
	spec TaskSpec

	state       string
	worker      string // current leaseholder ("" when pending/terminal)
	attempts    int    // leases consumed
	cancelled   bool   // cancellation requested
	submittedAt time.Time
	leasedAt    time.Time // when the current lease was granted
	log         []string

	result *TaskResultPayload
	err    error

	done chan struct{} // closed on terminal state
}

// workerState tracks one registered worker. The completed/failed counters
// and the lease-to-complete histogram feed the fleet scoreboard in Status.
type workerState struct {
	id          string
	name        string
	capacity    int
	parallelism int
	deadline    time.Time
	leased      map[string]*task

	completed int64
	failed    int64
	ltc       *obs.Histogram // lease-to-complete latency (ms)

	// cpuMs / allocBytes accumulate the shipped ledgers of completed tasks
	// (the scoreboard's per-worker resource rollup).
	cpuMs      float64
	allocBytes int64
}

// Coordinator owns the task queue and worker registry. All methods are safe
// for concurrent use.
type Coordinator struct {
	cfg   Config
	store *store.Store
	m     *Metrics
	log   *slog.Logger

	mu      sync.Mutex
	closed  bool
	workers map[string]*workerState
	tasks   map[string]*task
	pending []*task // FIFO
	wake    chan struct{}
	taskSeq uint64
	wkrSeq  uint64

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator starts a coordinator. st may be nil when no stored
// datasets will be referenced (tests); the dataset-export endpoint then 404s.
func NewCoordinator(cfg Config, st *store.Store) *Coordinator {
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	c := &Coordinator{
		cfg:       cfg.withDefaults(),
		store:     st,
		m:         sharedMetrics(),
		log:       log,
		workers:   make(map[string]*workerState),
		tasks:     make(map[string]*task),
		wake:      make(chan struct{}),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	// The shared-metrics gauges outlive any one coordinator (expvar
	// singletons); resync them to this coordinator's actual — empty — state
	// so a reconstructed coordinator doesn't report its predecessor's
	// workers and queue.
	c.m.Workers.Set(0)
	c.refreshGaugesLocked()
	go c.sweeper()
	return c
}

// Close fails every non-terminal task with ErrClosed, wakes all pollers,
// and stops the liveness sweeper.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.sweepDone
		return
	}
	c.closed = true
	for _, t := range c.tasks {
		if !terminal(t.state) {
			c.finishLocked(t, taskFailed, nil, ErrClosed)
		}
	}
	c.pending = nil
	c.wakeAllLocked()
	c.mu.Unlock()
	close(c.stopSweep)
	<-c.sweepDone
}

// Submit admits a task and returns its id. The task starts pending; a
// worker will lease it.
func (c *Coordinator) Submit(spec TaskSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	c.taskSeq++
	t := &task{
		id:          fmt.Sprintf("t-%06d", c.taskSeq),
		spec:        spec,
		state:       taskPending,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	c.tasks[t.id] = t
	c.pending = append(c.pending, t)
	c.m.TasksSubmitted.Add(1)
	c.refreshGaugesLocked()
	c.wakeAllLocked()
	return t.id, nil
}

// Await blocks until the task is terminal or ctx is done. Cancellation
// propagates: a done ctx requests task cancellation (the leaseholder is
// told to stop on its next poll) and returns ctx.Err() immediately. On a
// terminal task it returns the result, the task's error, or a
// context.Canceled-wrapping error for a cancelled task.
func (c *Coordinator) Await(ctx context.Context, id string) (*TaskResultPayload, error) {
	c.mu.Lock()
	t, ok := c.tasks[id]
	c.mu.Unlock()
	if !ok {
		return nil, ErrUnknownTask
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		c.CancelTask(id)
		return nil, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch t.state {
	case taskSucceeded:
		return t.result, nil
	case taskCancelled:
		return nil, fmt.Errorf("cluster: task %s cancelled: %w", id, context.Canceled)
	default:
		return nil, t.err
	}
}

// Run executes spec on the fleet — submit, await — and rejoins the spans and
// the resource ledger the worker recorded to the job in ctx, so its stage
// breakdown and cost record cover remote work too. It is the RunFunc of
// cluster mode, and the one place a task's result is awaited.
func (c *Coordinator) Run(ctx context.Context, spec TaskSpec) (*TaskResultPayload, error) {
	spec.Trace = obs.TraceID(ctx)
	id, err := c.Submit(spec)
	if err != nil {
		return nil, err
	}
	payload, err := c.Await(ctx, id)
	if err != nil {
		return nil, err
	}
	obs.RecorderFrom(ctx).Add(payload.Spans)
	obs.LedgerFrom(ctx).Merge(payload.Ledger)
	return payload, nil
}

// CancelTask requests cancellation: pending tasks go terminal at once;
// leased tasks are flagged, and the leaseholder learns via its next
// heartbeat or lease response. Cancelling an unknown or terminal task is a
// no-op.
func (c *Coordinator) CancelTask(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tasks[id]
	if !ok || terminal(t.state) {
		return
	}
	t.cancelled = true
	if t.state == taskPending {
		c.dropPendingLocked(t)
		c.finishLocked(t, taskCancelled, nil, nil)
	}
}

// Register admits a worker.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return RegisterResponse{}, ErrClosed
	}
	c.wkrSeq++
	id := fmt.Sprintf("w-%06d", c.wkrSeq)
	name := req.Name
	if name == "" {
		name = id
	}
	cap := req.Capacity
	if cap < 1 {
		cap = 1
	}
	c.workers[id] = &workerState{
		id:          id,
		name:        name,
		capacity:    cap,
		parallelism: req.Parallelism,
		deadline:    time.Now().Add(c.cfg.HeartbeatTimeout),
		leased:      make(map[string]*task),
		ltc:         obs.NewHistogram(),
	}
	c.m.WorkersJoined.Add(1)
	c.m.Workers.Set(int64(len(c.workers)))
	c.log.Info("worker joined", "worker", id, "name", name, "capacity", cap, "parallelism", req.Parallelism)
	return RegisterResponse{
		WorkerID:            id,
		HeartbeatIntervalMs: c.cfg.HeartbeatInterval.Milliseconds(),
		HeartbeatTimeoutMs:  c.cfg.HeartbeatTimeout.Milliseconds(),
	}, nil
}

// Heartbeat renews the worker's liveness deadline and returns ids of its
// tasks that should be cancelled.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	w.deadline = time.Now().Add(c.cfg.HeartbeatTimeout)
	return HeartbeatResponse{Cancel: c.cancellationsLocked(w)}, nil
}

// cancellationsLocked lists the worker's leased tasks flagged for
// cancellation.
func (c *Coordinator) cancellationsLocked(w *workerState) []string {
	var cancel []string
	for id, t := range w.leased {
		if t.cancelled {
			cancel = append(cancel, id)
		}
	}
	sort.Strings(cancel)
	return cancel
}

// Lease hands the worker the oldest pending task, blocking up to wait for
// one to appear. It returns (nil, nil, nil-error) — no task — on timeout.
// Leasing renews the worker's liveness like a heartbeat.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (*LeaseResponse, error) {
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
			return nil, ErrUnknownWorker
		}
		w.deadline = time.Now().Add(c.cfg.HeartbeatTimeout)
		if t := c.popPendingLocked(); t != nil {
			t.state = taskLeased
			t.worker = workerID
			t.leasedAt = time.Now()
			t.attempts++
			w.leased[t.id] = t
			resp := &LeaseResponse{TaskID: t.id, Spec: t.spec, Cancel: c.cancellationsLocked(w)}
			c.m.LeasesGranted.Add(1)
			c.m.TaskLeaseWait.Observe(float64(time.Since(t.submittedAt)) / float64(time.Millisecond))
			c.refreshGaugesLocked()
			c.mu.Unlock()
			return resp, nil
		}
		wake := c.wake
		c.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// popPendingLocked removes and returns the oldest pending, non-cancelled
// task.
func (c *Coordinator) popPendingLocked() *task {
	for len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		if t.state == taskPending && !t.cancelled {
			return t
		}
	}
	return nil
}

// Complete delivers a task outcome from a worker. The lease is fenced: only
// the current leaseholder's completion is accepted; a stale one (the task
// was requeued to someone else after this worker was declared dead) returns
// ErrStaleLease and is otherwise ignored. Completing an already-terminal
// task is an idempotent no-op.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tasks[req.TaskID]
	if !ok {
		return ErrUnknownTask
	}
	if terminal(t.state) {
		return nil
	}
	if t.state != taskLeased || t.worker != req.WorkerID {
		return fmt.Errorf("%w: task %s is not leased to %s", ErrStaleLease, req.TaskID, req.WorkerID)
	}
	w := c.workers[req.WorkerID]
	if w != nil {
		delete(w.leased, req.TaskID)
		w.deadline = time.Now().Add(c.cfg.HeartbeatTimeout)
	}
	switch {
	case t.cancelled || req.Cancelled:
		c.finishLocked(t, taskCancelled, nil, nil)
	case req.Requeue:
		c.requeueLocked(t, fmt.Sprintf("worker %s gave the task back: %s", req.WorkerID, orMsg(req.Error, "shutting down")))
	case req.Error != "":
		// Deterministic failure: the training itself errored. Rerunning the
		// same pure function elsewhere yields the same error; fail now.
		t.log = append(t.log, fmt.Sprintf("attempt %d on %s: %s", t.attempts, req.WorkerID, req.Error))
		if w != nil {
			w.failed++
		}
		c.finishLocked(t, taskFailed, nil, &TaskError{TaskID: t.id, Attempts: t.attempts, Reason: req.Error, Log: t.log})
	case req.Result == nil:
		t.log = append(t.log, fmt.Sprintf("attempt %d on %s: empty completion", t.attempts, req.WorkerID))
		if w != nil {
			w.failed++
		}
		c.finishLocked(t, taskFailed, nil, &TaskError{TaskID: t.id, Attempts: t.attempts, Reason: "worker sent an empty completion", Log: t.log})
	default:
		if w != nil {
			w.completed++
			ms := float64(time.Since(t.leasedAt)) / float64(time.Millisecond)
			w.ltc.Observe(ms)
			c.m.TaskLeaseToComplete.Observe(ms)
			if l := req.Result.Ledger; l != nil {
				w.cpuMs += l.CPUMs
				w.allocBytes += l.BytesMaterialized
			}
		}
		c.finishLocked(t, taskSucceeded, req.Result, nil)
	}
	return nil
}

// orMsg returns s, or def when s is empty.
func orMsg(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// requeueLocked puts a lost task back on the queue, or fails it when its
// attempts are exhausted. Cancelled tasks go terminal instead of rerunning.
func (c *Coordinator) requeueLocked(t *task, reason string) {
	t.log = append(t.log, fmt.Sprintf("attempt %d: %s", t.attempts, reason))
	t.worker = ""
	if t.cancelled {
		c.finishLocked(t, taskCancelled, nil, nil)
		return
	}
	if t.attempts >= c.cfg.MaxAttempts {
		c.finishLocked(t, taskFailed, nil, &TaskError{TaskID: t.id, Attempts: t.attempts, Reason: reason, Log: t.log})
		return
	}
	t.state = taskPending
	c.pending = append(c.pending, t)
	c.m.TasksRequeued.Add(1)
	c.log.Info("task requeued", "task", t.id, "trace", t.spec.Trace, "attempt", t.attempts, "reason", reason)
	c.refreshGaugesLocked()
	c.wakeAllLocked()
}

// finishLocked records a terminal state and wakes waiters.
func (c *Coordinator) finishLocked(t *task, state string, result *TaskResultPayload, err error) {
	t.state = state
	t.worker = ""
	t.result = result
	t.err = err
	close(t.done)
	switch state {
	case taskSucceeded:
		c.m.TasksSucceeded.Add(1)
	case taskFailed:
		c.m.TasksFailed.Add(1)
		c.log.Warn("task failed", "task", t.id, "trace", t.spec.Trace, "err", err)
	case taskCancelled:
		c.m.TasksCancelled.Add(1)
	}
	c.refreshGaugesLocked()
	// Terminal tasks are forgotten once their waiter has collected them —
	// the serving layer holds the job history; keeping every task forever
	// would leak on a long-lived coordinator. A short grace keeps late
	// duplicate completions idempotent.
	tid := t.id
	time.AfterFunc(10*c.cfg.HeartbeatTimeout, func() {
		c.mu.Lock()
		delete(c.tasks, tid)
		c.mu.Unlock()
	})
}

// dropPendingLocked removes t from the pending queue.
func (c *Coordinator) dropPendingLocked(t *task) {
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// wakeAllLocked wakes every lease long-poll.
func (c *Coordinator) wakeAllLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// sweeper periodically reaps workers whose heartbeat deadline passed,
// requeueing their leased tasks.
func (c *Coordinator) sweeper() {
	defer close(c.sweepDone)
	ticker := time.NewTicker(c.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopSweep:
			return
		case <-ticker.C:
			c.reapDead(time.Now())
		}
	}
}

// reapDead removes workers past their deadline and requeues their tasks.
// Exposed to tests via the sweeper's clock; callers pass time.Now().
func (c *Coordinator) reapDead(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if now.Before(w.deadline) {
			continue
		}
		delete(c.workers, id)
		c.m.WorkersLost.Add(1)
		c.m.Workers.Set(int64(len(c.workers)))
		c.log.Warn("worker lost", "worker", id, "name", w.name, "leased", len(w.leased))
		// Requeue in task-id order so recovery is deterministic.
		ids := make([]string, 0, len(w.leased))
		for tid := range w.leased {
			ids = append(ids, tid)
		}
		sort.Strings(ids)
		for _, tid := range ids {
			c.requeueLocked(w.leased[tid], fmt.Sprintf("worker %s (%s) lost: heartbeat timeout", id, w.name))
		}
	}
}

// TotalCapacity sums the task capacity of every live worker — how many
// tasks the fleet can execute at once. Schedulers use it to size their
// dispatch concurrency.
func (c *Coordinator) TotalCapacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, w := range c.workers {
		total += w.capacity
	}
	return total
}

// Status snapshots the registry and queue.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Workers: make([]WorkerStatus, 0, len(c.workers))}
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID:             w.id,
			Name:           w.name,
			Capacity:       w.capacity,
			Parallelism:    w.parallelism,
			Leased:         len(w.leased),
			LastSeen:       w.deadline.Add(-c.cfg.HeartbeatTimeout),
			TasksCompleted: w.completed,
			TasksFailed:    w.failed,
			CPUMs:          w.cpuMs,
			AllocBytes:     w.allocBytes,
		}
		if total := w.completed + w.failed; total > 0 {
			ws.ErrorRate = float64(w.failed) / float64(total)
		}
		if w.completed > 0 {
			ws.P95LeaseToCompleteMs = w.ltc.Quantile(0.95)
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	for _, t := range c.tasks {
		switch t.state {
		case taskPending:
			st.TasksPending++
		case taskLeased:
			st.TasksLeased++
		}
	}
	return st
}

// refreshGaugesLocked recomputes the pending/leased gauges.
func (c *Coordinator) refreshGaugesLocked() {
	var pending, leased int64
	for _, t := range c.tasks {
		switch t.state {
		case taskPending:
			pending++
		case taskLeased:
			leased++
		}
	}
	c.m.TasksPending.Set(pending)
	c.m.TasksLeased.Set(leased)
}

// terminal reports whether a task state is final.
func terminal(state string) bool {
	return state == taskSucceeded || state == taskFailed || state == taskCancelled
}
