package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/obs"
	"blinkml/internal/store"
)

// WorkerConfig sizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8080").
	Coordinator string
	// Name labels the worker in coordinator status (default: hostname).
	Name string
	// Capacity is how many tasks run concurrently (default 1 — each task
	// already fans out across the compute pool).
	Capacity int
	// DataDir is the local dataset cache directory (default: a fresh
	// temporary directory).
	DataDir string
	// Client is the HTTP client (default: http.DefaultClient with generous
	// timeouts handled per-call).
	Client *http.Client
	// Log receives structured progress events, scoped per task by trace ID
	// (default slog.Default; tests pass obs.Discard()).
	Log *slog.Logger
	// Flight, when non-nil, receives every completed task (spans + ledger)
	// in its ring and is triggered on deterministic task failures, so a
	// worker that starts failing tasks leaves a diagnostic bundle behind.
	Flight *obs.FlightRecorder
}

// Worker executes coordinator tasks: it registers, heartbeats, leases,
// trains, and completes. One Worker handles Capacity tasks concurrently;
// kernels inside each task draw on the process-wide compute pool.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	log    *slog.Logger
	cache  *store.Store

	regMu   sync.Mutex // serializes (re-)registration
	mu      sync.Mutex
	id      string
	hbEvery time.Duration
	running map[string]*runningTask
	fetchMu sync.Mutex  // serializes dataset bundle fetches
	tasks   *TaskRunner // what a leased task runs: its env/plan cache, and fetchDataset
}

// runningTask is one in-flight execution.
type runningTask struct {
	cancel    context.CancelFunc
	cancelled bool // coordinator asked for cancellation
}

// NewWorker validates cfg and opens the local dataset cache.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.Name == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Name = host
		}
	}
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "blinkml-worker-*")
		if err != nil {
			return nil, fmt.Errorf("cluster: worker cache dir: %w", err)
		}
		cfg.DataDir = dir
	}
	cache, err := store.Open(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	logger := cfg.Log
	if logger == nil {
		logger = slog.Default()
	}
	w := &Worker{
		cfg:     cfg,
		client:  client,
		log:     logger,
		cache:   cache,
		running: make(map[string]*runningTask),
	}
	w.tasks = NewTaskRunner(core.NewCache(sharedWorkerMetrics()), w.fetchDataset)
	return w, nil
}

// ID returns the coordinator-assigned worker id ("" before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run registers and serves tasks until ctx is done. On shutdown, in-flight
// tasks are cancelled and handed back to the coordinator for requeueing
// (best effort — if the handback cannot be delivered, the heartbeat timeout
// requeues them anyway).
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx, ""); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() { defer hbDone.Done(); w.heartbeatLoop(hbCtx) }()

	slots := make(chan struct{}, w.cfg.Capacity)
	for i := 0; i < w.cfg.Capacity; i++ {
		slots <- struct{}{}
	}
	var tasks sync.WaitGroup
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-slots:
		}
		lease, err := w.lease(ctx)
		if err != nil {
			slots <- struct{}{}
			if ctx.Err() != nil {
				break loop
			}
			w.log.Warn("lease failed, retrying", "err", err)
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				break loop
			}
			continue
		}
		if lease == nil {
			slots <- struct{}{}
			continue
		}
		w.applyCancels(lease.Cancel)
		tasks.Add(1)
		go func(lease *LeaseResponse) {
			defer tasks.Done()
			defer func() { slots <- struct{}{} }()
			w.execute(ctx, lease)
		}(lease)
	}
	tasks.Wait()
	stopHB()
	hbDone.Wait()
	return ctx.Err()
}

// register joins the coordinator, retrying until ctx is done. staleID is
// the id the caller saw rejected ("" on first registration): if another
// goroutine already replaced it — heartbeat and lease can observe the same
// coordinator restart concurrently — the call is a no-op, so one restart
// never yields two live registrations (and a phantom worker inflating the
// coordinator's capacity until it times out).
func (w *Worker) register(ctx context.Context, staleID string) error {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if cur := w.ID(); cur != staleID {
		return nil // already re-registered by a concurrent observer
	}
	req := RegisterRequest{
		Name:        w.cfg.Name,
		Capacity:    w.cfg.Capacity,
		Parallelism: compute.Parallelism(),
	}
	for {
		var resp RegisterResponse
		err := w.call(ctx, "/v1/cluster/register", req, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.hbEvery = time.Duration(resp.HeartbeatIntervalMs) * time.Millisecond
			if w.hbEvery <= 0 {
				w.hbEvery = 2 * time.Second
			}
			w.mu.Unlock()
			w.log.Info("registered with coordinator",
				"worker", resp.WorkerID, "capacity", req.Capacity, "parallelism", req.Parallelism)
			return nil
		}
		w.log.Warn("register failed, retrying", "err", err)
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// heartbeatLoop renews liveness and applies cancellation notices.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		every := w.hbEvery
		id := w.id
		ids := make([]string, 0, len(w.running))
		for tid := range w.running {
			ids = append(ids, tid)
		}
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
		var resp HeartbeatResponse
		err := w.call(ctx, "/v1/cluster/heartbeat", HeartbeatRequest{WorkerID: id, Running: ids}, &resp)
		if isStatus(err, http.StatusNotFound) {
			// The coordinator forgot us (restart, or we were declared dead).
			// Re-register under a new id; completions of tasks leased under
			// the old id will be fenced off, which is exactly right — the
			// coordinator has already requeued them.
			if rerr := w.register(ctx, id); rerr != nil {
				return
			}
			continue
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.log.Warn("heartbeat failed", "err", err)
			continue
		}
		w.applyCancels(resp.Cancel)
	}
}

// applyCancels cancels the named in-flight tasks.
func (w *Worker) applyCancels(ids []string) {
	if len(ids) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range ids {
		if rt, ok := w.running[id]; ok && !rt.cancelled {
			rt.cancelled = true
			rt.cancel()
		}
	}
}

// lease long-polls for one task; (nil, nil) means none available.
func (w *Worker) lease(ctx context.Context) (*LeaseResponse, error) {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	var resp LeaseResponse
	err := w.call(ctx, "/v1/cluster/lease", LeaseRequest{WorkerID: id, WaitMs: 2000}, &resp)
	if isStatus(err, http.StatusNoContent) {
		return nil, nil
	}
	if isStatus(err, http.StatusNotFound) {
		if rerr := w.register(ctx, id); rerr != nil {
			return nil, rerr
		}
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// execute runs one leased task and reports its outcome. The lease's trace
// id (minted at the coordinator's API admission) scopes the task's spans and
// log lines; recorded spans ship back in the completion payload so they
// rejoin the submitting job's trace on the coordinator.
func (w *Worker) execute(ctx context.Context, lease *LeaseResponse) {
	taskCtx, cancel := context.WithCancel(ctx)
	rt := &runningTask{cancel: cancel}
	w.mu.Lock()
	workerID := w.id
	w.running[lease.TaskID] = rt
	w.mu.Unlock()
	defer func() {
		cancel()
		w.mu.Lock()
		delete(w.running, lease.TaskID)
		w.mu.Unlock()
	}()

	rec := obs.NewRecorder(lease.Spec.Trace)
	tlog := w.log.With("task", lease.TaskID)
	if lease.Spec.Trace != "" {
		tlog = tlog.With("trace", lease.Spec.Trace)
	}
	// The per-task ledger meters the worker-side cost (CPU, kernels, rows,
	// bundle-cache traffic); it ships back in the completion payload so the
	// coordinator's job record carries the whole cost. Bound to this
	// goroutine so the context-free layers (pool, kernels, store) can charge.
	ledger := obs.NewLedger()
	taskCtx = obs.WithTrace(taskCtx, lease.Spec.Trace)
	taskCtx = obs.WithRecorder(taskCtx, rec)
	taskCtx = obs.WithLogger(taskCtx, tlog)
	taskCtx = obs.WithLedger(taskCtx, ledger)
	tlog.Info("task leased", "kind", lease.Spec.Kind)

	start := time.Now()
	unbind := obs.BindLedger(ledger)
	result, err := w.tasks.Run(taskCtx, lease.Spec)
	unbind()
	comp := CompleteRequest{WorkerID: workerID, TaskID: lease.TaskID}
	switch {
	case err == nil:
		spans := rec.Spans()
		for i := range spans {
			spans[i].Worker = w.cfg.Name
		}
		result.Spans = spans
		result.Ledger = ledger.Snapshot()
		comp.Result = result
		tlog.Info("task done", "dur_ms", float64(time.Since(start))/float64(time.Millisecond))
	default:
		w.mu.Lock()
		cancelled := rt.cancelled
		w.mu.Unlock()
		switch {
		case cancelled:
			comp.Cancelled = true
		case ctx.Err() != nil:
			// The worker itself is shutting down; hand the task back.
			comp.Requeue = true
			comp.Error = "worker shutting down"
		case errors.Is(err, errInfra) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Not the task's fault: a transient fetch failure, or a stray
			// context error. Hand it back for a retry (the attempt cap
			// still bounds the total) instead of failing it as if training
			// itself had diverged.
			comp.Requeue = true
			comp.Error = err.Error()
		default:
			comp.Error = err.Error()
		}
		tlog.Warn("task not completed", "err", err,
			"cancelled", comp.Cancelled, "requeue", comp.Requeue)
	}
	if fr := w.cfg.Flight; fr != nil {
		entry := obs.FlightEntry{
			Trace:      lease.Spec.Trace,
			JobID:      lease.TaskID,
			Kind:       "task:" + string(lease.Spec.Kind),
			Err:        comp.Error,
			DurMs:      float64(time.Since(start)) / float64(time.Millisecond),
			FinishedAt: time.Now(),
			Spans:      rec.Spans(),
			Ledger:     ledger.Snapshot(),
		}
		fr.Record(entry)
		// A deterministic failure (not a cancellation or an infrastructure
		// requeue) is the worker-side analogue of an SLO breach: capture the
		// scene before the evidence scrolls out of the ring.
		if err != nil && !comp.Cancelled && !comp.Requeue {
			fr.Trigger("task-failure", lease.TaskID+": "+comp.Error)
		}
	}
	w.complete(comp)
}

// complete delivers an outcome with bounded retries. It must work during
// shutdown, so it uses its own timeout rather than the run context.
func (w *Worker) complete(comp CompleteRequest) {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := w.call(ctx, "/v1/cluster/complete", comp, &struct{}{})
		cancel()
		if err == nil {
			return
		}
		// A fenced (stale) or unknown completion is final: the coordinator
		// has moved on; our result is void.
		if isStatus(err, http.StatusConflict) || isStatus(err, http.StatusNotFound) {
			w.log.Warn("task result discarded", "task", comp.TaskID, "err", err)
			return
		}
		w.log.Warn("complete failed, retrying", "task", comp.TaskID, "err", err)
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
}

// fetchDataset returns the cached handle for stored dataset ref, downloading
// the bundle from the coordinator at most once per content: when the cache
// misses or holds different bytes under the id.
func (w *Worker) fetchDataset(ctx context.Context, ref DatasetRef) (*store.Handle, error) {
	w.fetchMu.Lock()
	defer w.fetchMu.Unlock()
	if h, err := w.cache.Get(ref.ID); err == nil {
		man := h.Manifest()
		if man.RowCRC32 == ref.RowCRC32 && man.IndexCRC32 == ref.IndexCRC32 {
			obs.LedgerFrom(ctx).ChargeBundle(true)
			return h, nil
		}
		// Same id, different content: the cache is from another coordinator
		// lifetime. Replace it, and whatever was prepared from the old files.
		w.tasks.cache.Drop(DatasetKeyPrefix(ref.ID))
		if err := w.cache.Delete(ref.ID); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.cfg.Coordinator+"/v1/cluster/datasets/"+ref.ID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: fetch dataset %s: %v", errInfra, ref.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// The coordinator genuinely has no such dataset — deterministic.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("cluster: fetch dataset %s: status %d: %s", ref.ID, resp.StatusCode, body)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("%w: fetch dataset %s: status %d: %s", errInfra, ref.ID, resp.StatusCode, body)
	}
	h, err := w.cache.ImportBundle(ref.ID, resp.Body)
	if err != nil {
		// A truncated or checksum-failing transfer is retryable; the bytes
		// on the coordinator are fine.
		return nil, fmt.Errorf("%w: %v", errInfra, err)
	}
	obs.LedgerFrom(ctx).ChargeBundle(false)
	w.log.Info("cached dataset", "dataset", ref.ID, "rows", h.Manifest().Rows)
	return h, nil
}

// errInfra marks failures of the worker's own infrastructure (dataset
// transfer) rather than of the task: the task is handed back for a retry
// instead of failed as deterministic.
var errInfra = errors.New("cluster: worker infrastructure error")

// statusError carries a non-2xx protocol response.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: status %d: %s", e.status, e.msg)
}

// isStatus reports whether err is a statusError with the given code.
func isStatus(err error, status int) bool {
	var se *statusError
	return errors.As(err, &se) && se.status == status
}

// call POSTs a JSON request to the coordinator and decodes the JSON
// response. Non-2xx responses become statusErrors carrying the protocol
// error message.
func (w *Worker) call(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace := obs.TraceID(ctx); trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return &statusError{status: http.StatusNoContent}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProtocolBody))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var pe protoError
		msg := string(raw)
		if json.Unmarshal(raw, &pe) == nil && pe.Error != "" {
			msg = pe.Error
		}
		return &statusError{status: resp.StatusCode, msg: msg}
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("cluster: decode %s response: %w", path, err)
		}
	}
	return nil
}
