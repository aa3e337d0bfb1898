package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"blinkml/internal/cluster"
	"blinkml/internal/obs"
	"blinkml/internal/tune"
)

// Job states (wire values of JobStatus.State).
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobSucceeded = "succeeded"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Queue admission errors.
var (
	ErrQueueFull   = errors.New("serve: training queue is full")
	ErrQueueClosed = errors.New("serve: queue is closed")
	ErrJobNotFound = errors.New("serve: job not found")
)

// Task is one unit of queued work — a training run or a hyperparameter
// search. Run must honor ctx: when the job is cancelled, ctx is cancelled
// and Run should return promptly (the task function polls it between
// optimizer iterations; an awaited cluster task is cancelled with it). On
// success it returns the registry id of the
// stored model plus whatever kind-specific report it produced.
type Task interface {
	// Kind tags the job on the wire ("train" or "tune").
	Kind() string
	// Run executes the work under the job's context.
	Run(ctx context.Context) (TaskResult, error)
}

// TaskResult is what a finished task reports back through the job status.
type TaskResult struct {
	// ModelID is the registry id of the stored model.
	ModelID string
	// Diagnostics is the Figure-8 phase breakdown (training jobs, and the
	// winning candidate of tune jobs).
	Diagnostics *PhaseBreakdown
	// Tune is the search report (tune jobs only).
	Tune *tune.Result
	// Plan is "hit" when a train job's contract was answered from a cached
	// plan, "miss" when it built one.
	Plan string
}

// datasetTask is implemented by tasks that reference a stored dataset; the
// queue records the id so the dataset API can refuse to delete a dataset
// out from under queued or running work.
type datasetTask interface {
	datasetID() string
}

// Job is one queued or running task. All mutable state is behind mu;
// handlers read consistent snapshots via Status.
type Job struct {
	ID   string
	kind string
	// trace is the job's trace ID — client-supplied via the X-Blinkml-Trace
	// header or minted at admission. Immutable after Enqueue.
	trace string
	// dataset is the stored-dataset id the task references ("" when the job
	// trains on synthetic or inline data). Immutable after Enqueue.
	dataset string
	task    Task

	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	state        string
	errMsg       string
	result       TaskResult
	spans        []obs.Span
	droppedSpans int
	resources    *obs.LedgerSnapshot
	enqueuedAt   time.Time
	startedAt    time.Time
	finishedAt   time.Time

	// ledger is the live resource ledger while the job runs (set by runJob;
	// read by the flight recorder's live-ledger dump callback).
	ledger *obs.Ledger
}

// Trace returns the job's trace ID.
func (j *Job) Trace() string { return j.trace }

// Status returns a consistent snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Kind:        j.kind,
		State:       j.state,
		TraceID:     j.trace,
		ModelID:     j.result.ModelID,
		Error:       j.errMsg,
		Diagnostics: j.result.Diagnostics,
		Tune:        j.result.Tune,
		Plan:        j.result.Plan,
		Resources:   j.resources,
		EnqueuedAt:  j.enqueuedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
	}
	if st.Resources == nil && j.ledger != nil {
		st.Resources = j.ledger.Snapshot() // job still running: report live costs
	}
	if len(j.spans) > 0 {
		st.Trace = &TraceReport{
			TraceID:      j.trace,
			Stages:       obs.AggregateStages(j.spans),
			Spans:        append([]obs.Span(nil), j.spans...),
			DroppedSpans: j.droppedSpans,
		}
	}
	return st
}

// markRunning transitions queued → running; it reports false when the job
// was cancelled while still waiting, in which case the worker must skip it.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.startedAt = time.Now()
	return true
}

// setSpans stores the job's recorded spans (before finish, so a Status read
// after the terminal state always sees them).
func (j *Job) setSpans(spans []obs.Span, dropped int) {
	j.mu.Lock()
	j.spans = spans
	j.droppedSpans = dropped
	j.mu.Unlock()
}

// setLedger publishes the job's live ledger while it runs.
func (j *Job) setLedger(l *obs.Ledger) {
	j.mu.Lock()
	j.ledger = l
	j.mu.Unlock()
}

// sealLedger stores the final ledger snapshot and drops the live ledger.
func (j *Job) sealLedger(s *obs.LedgerSnapshot) {
	j.mu.Lock()
	j.resources = s
	j.ledger = nil
	j.mu.Unlock()
}

// finish records a terminal state. The task is dropped so a finished job
// does not pin its (possibly inline, possibly huge) dataset in memory for
// the rest of the process lifetime.
func (j *Job) finish(state, errMsg string, result TaskResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finishedAt = time.Now()
	j.task = nil
}

// Queue is the async job queue: a bounded channel feeding a fixed worker
// pool, shared by training and tune jobs. Admission is non-blocking — a
// full queue rejects with ErrQueueFull so clients get backpressure instead
// of hung requests. Every job carries its own context derived from the
// queue's base context, so individual jobs can be cancelled and Close
// cancels everything at once.
type Queue struct {
	m       *Metrics
	workers int

	// SpanSink, when set before any Enqueue, receives every finished job's
	// spans (the -span-log JSONL export hook). Called from worker goroutines.
	SpanSink func([]obs.Span)
	// Flight, when set before any Enqueue, receives every finished job as a
	// flight-recorder ring entry (span tree + ledger snapshot).
	Flight *obs.FlightRecorder
	// Log receives job lifecycle events and becomes the request-scoped
	// logger for job work; nil discards (tests, embedded queues).
	Log *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	done   []string // terminal job ids, oldest first, for history eviction
	seq    uint64
	closed bool
	ch     chan *Job
	wg     sync.WaitGroup
}

// maxFinishedJobs bounds how many terminal jobs are kept queryable; older
// ones are evicted so the job map cannot grow without bound on a
// long-running server.
const maxFinishedJobs = 1024

// NewQueue starts a queue with the given worker count and backlog depth
// (both floored at 1).
func NewQueue(workers, depth int, m *Metrics) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	if m == nil {
		m = sharedMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		m:          m,
		workers:    workers,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		ch:         make(chan *Job, depth),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Workers returns the worker-pool size.
func (q *Queue) Workers() int { return q.workers }

// Enqueue admits a task with a freshly minted trace ID, returning the new
// job or ErrQueueFull / ErrQueueClosed.
func (q *Queue) Enqueue(task Task) (*Job, error) {
	return q.EnqueueTrace(task, "")
}

// EnqueueTrace is Enqueue with a caller-supplied trace ID (the value of the
// request's X-Blinkml-Trace header); empty mints a new one.
func (q *Queue) EnqueueTrace(task Task, trace string) (*Job, error) {
	if trace == "" {
		trace = obs.NewTraceID()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrQueueClosed
	}
	q.seq++
	ctx, cancel := context.WithCancel(q.baseCtx)
	job := &Job{
		ID:         fmt.Sprintf("j-%06d", q.seq),
		kind:       task.Kind(),
		trace:      trace,
		task:       task,
		ctx:        ctx,
		cancel:     cancel,
		state:      JobQueued,
		enqueuedAt: time.Now(),
	}
	if dt, ok := task.(datasetTask); ok {
		job.dataset = dt.datasetID()
	}
	select {
	case q.ch <- job:
	default:
		cancel()
		q.seq--
		return nil, ErrQueueFull
	}
	q.jobs[job.ID] = job
	for len(q.done) > maxFinishedJobs {
		delete(q.jobs, q.done[0])
		q.done = q.done[1:]
	}
	q.m.JobsQueued.Add(1)
	return job, nil
}

// recordDone registers a terminal job for history eviction.
func (q *Queue) recordDone(id string) {
	q.mu.Lock()
	q.done = append(q.done, id)
	q.mu.Unlock()
}

// Get looks up a job by id.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	if !ok {
		return nil, ErrJobNotFound
	}
	return job, nil
}

// Len returns the number of known jobs (any state).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// List snapshots every known job in id order (oldest first), optionally
// filtered to one state ("" keeps all).
func (q *Queue) List(state string) []JobStatus {
	q.mu.Lock()
	jobs := make([]*Job, 0, len(q.jobs))
	for _, job := range q.jobs {
		jobs = append(jobs, job)
	}
	q.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	out := make([]JobStatus, 0, len(jobs))
	for _, job := range jobs {
		st := job.Status()
		if state == "" || st.State == state {
			out = append(out, st)
		}
	}
	return out
}

// ActiveDatasetJobs returns the ids of queued or running jobs that
// reference the stored dataset, in id order. The dataset API consults it
// before a delete.
func (q *Queue) ActiveDatasetJobs(datasetID string) []string {
	if datasetID == "" {
		return nil
	}
	q.mu.Lock()
	var ids []string
	for _, job := range q.jobs {
		if job.dataset != datasetID {
			continue
		}
		job.mu.Lock()
		active := job.state == JobQueued || job.state == JobRunning
		job.mu.Unlock()
		if active {
			ids = append(ids, job.ID)
		}
	}
	q.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Cancel stops a job: a queued job is marked cancelled immediately (the
// worker will skip it), a running job has its context cancelled and reaches
// the cancelled state as soon as the training loop notices — between
// optimizer iterations, not at the end of the run. (The exception is a
// closed-form trainer like PPCA's, which has no iterations: it stops only
// at the coordinator's phase boundaries.) Cancelling a finished job is a
// harmless no-op.
func (q *Queue) Cancel(id string) (JobStatus, error) {
	job, err := q.Get(id)
	if err != nil {
		return JobStatus{}, err
	}
	job.mu.Lock()
	switch job.state {
	case JobQueued:
		job.state = JobCancelled
		job.errMsg = "cancelled before start"
		job.finishedAt = time.Now()
		job.task = nil
		job.mu.Unlock()
		job.cancel()
		q.m.JobsCancelled.Add(1)
		q.recordDone(job.ID)
	case JobRunning:
		job.mu.Unlock()
		job.cancel()
	default:
		job.mu.Unlock()
	}
	return job.Status(), nil
}

// Close stops accepting work, cancels every outstanding job context, and
// waits for the workers to drain.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.ch)
	q.mu.Unlock()
	q.baseCancel()
	q.wg.Wait()
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for job := range q.ch {
		q.runJob(job)
	}
}

func (q *Queue) runJob(job *Job) {
	if !job.markRunning() {
		return // cancelled while queued
	}
	q.m.JobsRunning.Add(1)
	rec := obs.NewRecorder(job.trace)
	ctx := obs.WithRecorder(obs.WithTrace(job.ctx, job.trace), rec)
	ctx = obs.WithJobID(ctx, job.ID)
	// The job's resource ledger: carried in ctx (explicit charge sites,
	// audit, cluster merge) and bound to this worker goroutine so the
	// compute pool, linalg kernels, and the store charge it too.
	ledger := obs.NewLedger()
	ledger.ChargeQueueWait(time.Since(job.enqueuedAt))
	job.setLedger(ledger)
	ctx = obs.WithLedger(ctx, ledger)
	unbind := obs.BindLedger(ledger)
	logger := q.Log
	if logger == nil {
		logger = obs.Discard() // embedded/test queues stay quiet unless wired
	}
	ctx = obs.WithLogger(ctx, logger)
	log := obs.Logger(ctx).With("job", job.ID, "kind", job.kind)
	log.Info("job started")
	start := time.Now()
	result, err := runContained(ctx, job.task)
	unbind()
	q.m.JobsRunning.Add(-1)
	job.setSpans(rec.Spans(), rec.Dropped())
	job.sealLedger(ledger.Snapshot())
	switch {
	case err == nil:
		job.finish(JobSucceeded, "", result)
		q.m.JobsSucceeded.Add(1)
		log.Info("job succeeded", "elapsed", time.Since(start), "model", result.ModelID)
	case errors.Is(err, context.Canceled) || job.ctx.Err() != nil:
		job.finish(JobCancelled, "cancelled: "+err.Error(), TaskResult{Diagnostics: result.Diagnostics})
		q.m.JobsCancelled.Add(1)
		log.Info("job cancelled", "elapsed", time.Since(start))
	default:
		job.finish(JobFailed, err.Error(), TaskResult{Diagnostics: result.Diagnostics})
		q.m.JobsFailed.Add(1)
		log.Warn("job failed", "elapsed", time.Since(start), "err", err)
	}
	job.cancel() // release the context's resources
	q.recordDone(job.ID)
	if q.SpanSink != nil {
		q.SpanSink(rec.Spans())
	}
	if q.Flight != nil {
		st := job.Status()
		var panicked *cluster.PanicError
		if errors.As(err, &panicked) {
			st.Error = panicked.Detail() // the status stays one line; the recorder keeps the stack
		}
		q.Flight.Record(obs.FlightEntry{
			Trace:      job.trace,
			JobID:      job.ID,
			Kind:       "job:" + job.kind,
			Err:        st.Error,
			DurMs:      float64(time.Since(start)) / float64(time.Millisecond),
			FinishedAt: time.Now(),
			Spans:      rec.Spans(),
			Ledger:     st.Resources,
		})
	}
}

// runContained is task.Run with a panic — in what the job does around its
// tasks; cluster.TaskRunner.Run contains its own — turned into the job's
// error, so it fails that job and not the process.
func runContained(ctx context.Context, task Task) (_ TaskResult, err error) {
	defer cluster.RecoverPanic(&err)
	return task.Run(ctx)
}

// LiveLedgers snapshots the ledgers of currently running jobs — the flight
// recorder's view of in-flight cost at dump time.
func (q *Queue) LiveLedgers() map[string]*obs.LedgerSnapshot {
	q.mu.Lock()
	jobs := make([]*Job, 0, len(q.jobs))
	for _, job := range q.jobs {
		jobs = append(jobs, job)
	}
	q.mu.Unlock()
	out := make(map[string]*obs.LedgerSnapshot)
	for _, job := range jobs {
		job.mu.Lock()
		l := job.ledger
		job.mu.Unlock()
		if l != nil {
			out[job.ID] = l.Snapshot()
		}
	}
	return out
}
