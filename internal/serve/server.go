package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"blinkml/internal/audit"
	"blinkml/internal/cluster"
	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/obs"
	"blinkml/internal/store"
)

// Config sizes a Server. Dir is required; everything else has defaults.
type Config struct {
	// Dir is the model registry directory (created if missing).
	Dir string
	// DataDir is the dataset store directory (default: "datasets" under
	// Dir).
	DataDir string
	// Workers is the training worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the training backlog; a full queue returns 503
	// (default 64).
	QueueDepth int
	// MaxBodyBytes caps request bodies (default 64 MiB — inline datasets
	// can be large).
	MaxBodyBytes int64
	// MaxUploadBytes caps POST /v1/datasets uploads (default 4 GiB — the
	// upload streams to disk and is never resident).
	MaxUploadBytes int64
	// Parallelism sets the process-wide compute-pool degree: the budget
	// every training kernel (matrix products, gradient accumulation,
	// statistics, probes, batched prediction) draws from, across all
	// concurrent jobs. 0 leaves the pool at its current setting (default
	// GOMAXPROCS). Job-level concurrency (Workers) and kernel-level
	// concurrency share this one budget: the pool hands out at most
	// Parallelism−1 helper goroutines process-wide, so W concurrent jobs
	// never fan out into W×Parallelism goroutines.
	Parallelism int
	// Cluster, when non-nil, runs the server as a cluster coordinator: the
	// tasks jobs are made of (a training, each trial of a search, an audit
	// replay) are dispatched to registered blinkml-worker processes, and
	// the cluster protocol is mounted under /v1/cluster. Nil runs the same
	// task function in this process.
	Cluster *cluster.Config
	// Logger receives structured job/coordinator lifecycle events, scoped
	// per request by trace ID. Nil discards (tests, embedded servers);
	// blinkml-serve passes a real slog handler.
	Logger *slog.Logger
	// SpanLog, when non-empty, appends every finished job's spans to this
	// file as JSONL (one obs.Span object per line).
	SpanLog string
	// SpanLogMaxBytes caps the span log: when an append would push the file
	// past this size it is rotated (renamed to <SpanLog>.old, keeping one
	// prior generation) and restarted. 0 disables rotation.
	SpanLogMaxBytes int64
	// AuditDir is the guarantee-audit log directory (default: "audit" under
	// Dir). Every train/tune job appends a calibration record there.
	AuditDir string
	// AuditInterval, when positive, starts the background auditor: every
	// interval it replays a sample of not-yet-audited jobs — training the
	// full-data model and recording the realized ε — to measure empirical
	// (ε, δ) coverage. 0 (the default) keeps auditing on-demand only
	// (POST /v1/audit/replay, blinkml-audit replay).
	AuditInterval time.Duration
	// AuditFraction is the fraction of pending records a background pass
	// replays (deterministically sampled by model ID; default 1).
	AuditFraction float64
	// SlowRequestMs, when positive, logs a slog warning — route, method,
	// status, latency, and trace ID — for any HTTP request slower than this
	// many milliseconds. 0 (the default) disables slow-request logging.
	SlowRequestMs float64
	// SLOLatencyMs is the per-endpoint latency bound the sliding-window SLO
	// attainment gauge (blinkml_http_slo_latency_attainment) measures
	// against (default 250 ms).
	SLOLatencyMs float64
	// FlightDir, when non-empty, enables the flight recorder: a bounded
	// in-memory ring of recent completed requests/jobs (span trees + ledgers)
	// that, on an SLO-window breach or a slow-request hit, dumps a diagnostic
	// bundle — ring contents, goroutine dump, CPU + heap profiles, live job
	// ledgers — into a rotated subdirectory of FlightDir. Bundles are listed
	// and fetched via GET /v1/debug/flightrecords.
	FlightDir string
	// FlightRingSize bounds the recorder's entry ring (default 64).
	FlightRingSize int
	// FlightMinInterval rate-limits bundle dumps (default 30s).
	FlightMinInterval time.Duration
	// FlightMaxBundles caps on-disk bundles; older ones rotate out (default 8).
	FlightMaxBundles int
	// FlightCPUProfile is the CPU-profile window captured into each bundle
	// (default 5s; negative disables the CPU profile).
	FlightCPUProfile time.Duration
}

func (c Config) withDefaults() Config {
	if c.DataDir == "" && c.Dir != "" {
		c.DataDir = filepath.Join(c.Dir, "datasets")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 4 << 30
	}
	if c.AuditDir == "" && c.Dir != "" {
		c.AuditDir = filepath.Join(c.Dir, "audit")
	}
	if c.SLOLatencyMs <= 0 {
		c.SLOLatencyMs = obs.DefaultSLOLatencyMs
	}
	return c
}

// Server is the blinkml-serve HTTP service: an async training job queue in
// front of the BlinkML coordinator, plus a persistent model registry for
// the models it produces.
type Server struct {
	cfg     Config
	reg     *Registry
	store   *store.Store
	cache   *core.Cache // environments and plans shared between in-process tasks
	queue   *Queue
	coord   *cluster.Coordinator // non-nil in cluster mode
	run     cluster.RunFunc      // every train, trial and replay: the task function here, or coord.Run
	mux     *http.ServeMux
	m       *Metrics
	log     *slog.Logger
	spanLog *obs.SpanLog // open -span-log sink, closed by Close
	audit   *audit.Log
	auditor *audit.Auditor
	flight  *obs.FlightRecorder // non-nil when Config.FlightDir is set
	started time.Time
}

// New opens the registry at cfg.Dir and the dataset store at cfg.DataDir
// (recovering persisted models and datasets) and starts the worker pool.
// Call Close to stop it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Parallelism > 0 {
		compute.SetParallelism(cfg.Parallelism)
	}
	reg, err := OpenRegistry(cfg.Dir)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	// The HTTP telemetry plane and the runtime collector are process-wide
	// singletons (like the expvar metric maps); reconfigure the shared
	// thresholds from this server's settings.
	obs.RegisterRuntimeMetrics()
	hm := obs.SharedHTTP()
	hm.SetSlowRequestThreshold(cfg.SlowRequestMs, log)
	hm.SetSLOLatencyThreshold(cfg.SLOLatencyMs)
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		store:   st,
		m:       sharedMetrics(),
		log:     log,
		started: time.Now(),
	}
	s.cache = core.NewCache(s.m.PlanCache)
	st.SetObserver(storeObserver{s.m})
	// Gauges survive server reconstruction within one process (the expvar
	// singletons outlive the server), so resync them from the actual
	// registry/store state rather than trusting stale values.
	s.m.ModelsStored.Set(int64(reg.Len()))
	s.refreshStoreGauges()
	s.queue = NewQueue(cfg.Workers, cfg.QueueDepth, s.m)
	s.queue.Log = cfg.Logger // nil keeps job logs silent
	if cfg.FlightDir != "" {
		fr, err := obs.NewFlightRecorder(obs.FlightConfig{
			Dir:         cfg.FlightDir,
			RingSize:    cfg.FlightRingSize,
			MinInterval: cfg.FlightMinInterval,
			MaxBundles:  cfg.FlightMaxBundles,
			CPUProfile:  cfg.FlightCPUProfile,
			Ledgers:     s.queue.LiveLedgers,
			Logger:      log,
		})
		if err != nil {
			s.queue.Close()
			return nil, err
		}
		s.flight = fr
		s.queue.Flight = fr
		hm.SetFlightRecorder(fr)
	}
	if cfg.SpanLog != "" {
		sl, err := obs.OpenSpanLog(cfg.SpanLog, cfg.SpanLogMaxBytes)
		if err != nil {
			s.queue.Close()
			return nil, fmt.Errorf("serve: open span log: %w", err)
		}
		s.spanLog = sl
		s.queue.SpanSink = func(spans []obs.Span) {
			if err := sl.Write(spans); err != nil {
				log.Warn("span log write failed", "err", err)
			}
		}
	}
	if cfg.Cluster != nil {
		ccfg := *cfg.Cluster
		if ccfg.Logger == nil {
			ccfg.Logger = log
		}
		s.coord = cluster.NewCoordinator(ccfg, st)
		s.run = s.coord.Run
	} else {
		s.run = cluster.NewTaskRunner(s.cache, func(_ context.Context, ref cluster.DatasetRef) (*store.Handle, error) {
			return st.Get(ref.ID)
		}).Run
	}
	al, err := audit.Open(cfg.AuditDir, log)
	if err != nil {
		s.queue.Close()
		if s.coord != nil {
			s.coord.Close()
		}
		_ = s.spanLog.Close()
		return nil, err
	}
	s.audit = al
	// Replays train the full-data model as audit tasks through s.run — in
	// cluster mode that work fans out to the fleet, locally it runs through
	// the shared compute pool.
	s.auditor = audit.NewAuditor(al, s.reg.Get, taskReplayer{s: s}, audit.Config{
		Fraction: cfg.AuditFraction,
		Interval: cfg.AuditInterval,
		Logger:   log,
	})
	s.auditor.Start()
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the HTTP handler for the whole API.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model store (used by the CLI and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Store exposes the dataset store (used by the CLI and tests).
func (s *Server) Store() *store.Store { return s.store }

// Coordinator returns the embedded cluster coordinator (nil outside
// cluster mode).
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// Close cancels all outstanding jobs and waits for the workers to drain.
// In cluster mode the coordinator is closed first, so jobs blocked on
// remote tasks fail fast instead of waiting out their contexts.
func (s *Server) Close() {
	if s.flight != nil {
		// The shared HTTP plane outlives this server; disarm it so requests
		// against a later server cannot dump into this one's directory.
		obs.SharedHTTP().SetFlightRecorder(nil)
	}
	if s.auditor != nil {
		s.auditor.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	s.queue.Close()
	_ = s.spanLog.Close()
	if s.audit != nil {
		_ = s.audit.Close()
	}
}

func (s *Server) routes() {
	// Every route goes through the obs HTTP middleware under its mux
	// pattern sans method, so the blinkml_http_* route label set is exactly
	// the registered API surface — request paths can never mint a series.
	hm := obs.SharedHTTP()
	handle := func(pattern string, h http.Handler) {
		route := pattern[strings.IndexByte(pattern, ' ')+1:]
		s.mux.Handle(pattern, hm.Wrap(route, h))
	}
	handle("POST /v1/train", http.HandlerFunc(s.handleTrain))
	handle("POST /v1/tune", http.HandlerFunc(s.handleTune))
	handle("POST /v1/datasets", http.HandlerFunc(s.handleDatasetUpload))
	handle("GET /v1/datasets", http.HandlerFunc(s.handleDatasetList))
	handle("GET /v1/datasets/{id}", http.HandlerFunc(s.handleDatasetGet))
	handle("DELETE /v1/datasets/{id}", http.HandlerFunc(s.handleDatasetDelete))
	handle("GET /v1/jobs", http.HandlerFunc(s.handleJobList))
	handle("GET /v1/jobs/{id}", http.HandlerFunc(s.handleJobGet))
	handle("DELETE /v1/jobs/{id}", http.HandlerFunc(s.handleJobCancel))
	handle("GET /v1/models", http.HandlerFunc(s.handleModelList))
	handle("GET /v1/models/{id}", http.HandlerFunc(s.handleModelGet))
	handle("DELETE /v1/models/{id}", http.HandlerFunc(s.handleModelDelete))
	handle("POST /v1/models/{id}/predict", http.HandlerFunc(s.handlePredict))
	handle("GET /v1/audit", http.HandlerFunc(s.handleAuditSummary))
	handle("GET /v1/audit/records", http.HandlerFunc(s.handleAuditRecords))
	handle("POST /v1/audit/replay", http.HandlerFunc(s.handleAuditReplay))
	handle("GET /v1/debug/flightrecords", http.HandlerFunc(s.handleFlightList))
	handle("GET /v1/debug/flightrecords/{name}", http.HandlerFunc(s.handleFlightGet))
	handle("GET /v1/debug/flightrecords/{name}/{file}", http.HandlerFunc(s.handleFlightFile))
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /metrics", obs.MetricsHandler())
	handle("GET /metrics.json", expvar.Handler())
	if s.coord != nil {
		s.coord.Mount(s.mux)
	}
}

// trainTask is the queued form of POST /v1/train; its work runs as a task
// through Server.run — in-process by default, on cluster workers in
// coordinator mode.
type trainTask struct {
	s   *Server
	req TrainRequest
}

// Kind implements Task.
func (trainTask) Kind() string { return "train" }

// datasetID implements datasetTask.
func (t trainTask) datasetID() string { return t.req.Dataset.ID }

// Run implements Task.
func (t trainTask) Run(ctx context.Context) (TaskResult, error) {
	return t.s.execTrain(ctx, t.req)
}

// tuneTask is the queued form of POST /v1/tune; every trial of its search
// runs as a task through Server.run.
type tuneTask struct {
	s   *Server
	req TuneRequest
}

// Kind implements Task.
func (tuneTask) Kind() string { return "tune" }

// datasetID implements datasetTask.
func (t tuneTask) datasetID() string { return t.req.Dataset.ID }

// Run implements Task.
func (t tuneTask) Run(ctx context.Context) (TaskResult, error) {
	return t.s.execTune(ctx, t.req)
}

// registerModel persists a trained model, refreshes the stored-models
// gauge, and appends the job's guarantee-calibration record to the audit
// log. kind is "train" or "tune"; ref (as admitted, pinned) and opts are what
// a later replay needs to rebuild the identical training environment.
func (s *Server) registerModel(ctx context.Context, kind string, m *modelio.Model, ref DatasetRef, opts core.Options) (string, error) {
	regStart := time.Now()
	m.CreatedAt = regStart.UTC()
	id, err := s.reg.Put(m)
	obs.LedgerFrom(ctx).ChargeRegistryIO(time.Since(regStart))
	if err != nil {
		return "", err
	}
	s.m.ModelsStored.Set(int64(s.reg.Len()))
	s.recordAudit(ctx, kind, id, m, ref, opts)
	return id, nil
}

// recordAudit appends the calibration record for a freshly registered
// model. Audit is an observability plane: a failed append is logged, never
// surfaced — a full disk must not fail the training job that already
// produced a registered model.
func (s *Server) recordAudit(ctx context.Context, kind, id string, m *modelio.Model, ref DatasetRef, opts core.Options) {
	if s.audit == nil {
		return
	}
	sj, err := modelio.SpecToJSON(m.Spec)
	if err != nil {
		s.log.Warn("audit record skipped: unencodable spec", "model", id, "err", err)
		return
	}
	// The record keeps the reference as it was submitted; a replay pins it to
	// whatever the id names then.
	dsJSON, err := json.Marshal(ref.Submitted())
	if err != nil {
		dsJSON = nil
	}
	o := opts.WithDefaults()
	rec := audit.Record{
		ModelID:          id,
		JobID:            obs.JobID(ctx),
		TraceID:          obs.TraceID(ctx),
		Kind:             kind,
		Family:           sj.Name,
		Spec:             sj,
		Dataset:          dsJSON,
		Fingerprint:      ref.Key(),
		Epsilon:          o.Epsilon,
		Delta:            o.Delta,
		K:                o.K,
		SampleSize:       m.SampleSize,
		PoolSize:         m.PoolSize,
		EpsilonHat:       m.EstimatedEpsilon,
		InitialEpsilon:   m.Diag.InitialEpsilon,
		UsedInitialModel: m.UsedInitialModel,
		Options:          o,
		CreatedAt:        time.Now().UTC(),
		// Snapshot at registration time: training is done; only the registry
		// I/O tail is still accruing.
		Resources: obs.LedgerFrom(ctx).Snapshot(),
	}
	if err := s.audit.Append(rec); err != nil {
		s.log.Warn("audit record append failed", "model", id, "err", err)
	}
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admitDataset(w, &req.Dataset) {
		return
	}
	s.enqueue(w, r, trainTask{s: s, req: req})
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admitDataset(w, &req.Dataset) {
		return
	}
	s.enqueue(w, r, tuneTask{s: s, req: req})
}

// admitDataset pins a validated request's dataset reference in place — what
// the queued job, its tasks and its audit fingerprint then read — or answers
// for it: 404 for a dataset_id the store does not have (the client hears now,
// not from a failed job; the id is resolved again when a task opens it, so a
// delete racing the queue fails the job, which is the honest outcome), 400 for
// anything else.
func (s *Server) admitDataset(w http.ResponseWriter, ref *DatasetRef) bool {
	err := s.pinDataset(ref)
	switch {
	case err == nil:
		return true
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

// enqueue admits a task and writes the 202 acknowledgement (or the 503
// backpressure error). The trace ID is minted here — at API admission — or
// adopted from the request's X-Blinkml-Trace header, and echoed in both the
// response body and header.
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, task Task) {
	job, err := s.queue.EnqueueTrace(task, r.Header.Get(obs.TraceHeader))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.log.Info("job enqueued", "job", job.ID, "kind", task.Kind(), "trace", job.Trace())
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	w.Header().Set(obs.TraceHeader, job.Trace())
	writeJSON(w, http.StatusAccepted, TrainResponse{JobID: job.ID, State: JobQueued, TraceID: job.Trace()})
}

// handleJobList is GET /v1/jobs: every known job, oldest first, optionally
// filtered with ?state=queued|running|succeeded|failed|cancelled.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	switch state {
	case "", JobQueued, JobRunning, JobSucceeded, JobFailed, JobCancelled:
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: unknown state filter %q (want queued|running|succeeded|failed|cancelled)", state))
		return
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: s.queue.List(state)})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.queue.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st := job.Status()
	// Join the guarantee-audit view: the job's calibration record and, once
	// the auditor has replayed it, the realized coverage sample.
	if st.ModelID != "" && s.audit != nil {
		if e, ok := s.audit.Get(st.ModelID); ok {
			st.Audit = &e
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.queue.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	ids := s.reg.List()
	list := ModelList{Models: make([]ModelInfo, 0, len(ids))}
	for _, id := range ids {
		m, err := s.reg.Get(id)
		if err != nil {
			continue // deleted between List and Get
		}
		info, err := NewModelInfo(id, m)
		if err != nil {
			continue
		}
		list.Models = append(list.Models, info)
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.reg.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	info, err := NewModelInfo(id, m)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if r.URL.Query().Get("theta") == "1" {
		info.Theta = m.Theta
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.reg.Delete(id); err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, ErrModelNotFound) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	s.m.ModelsStored.Set(int64(s.reg.Len()))
	w.WriteHeader(http.StatusNoContent)
}

// predictGrain is the minimum number of rows per parallel prediction
// chunk; below 2×predictGrain the batch stays serial, where the
// scatter/gather overhead would dominate.
const predictGrain = 256

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, err := s.reg.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// req.Rows may view pb's buffers, so pb goes back only once the reply
	// is written.
	pb := predictBufs.Get().(*predictBuf)
	defer pb.release()
	var req PredictRequest
	if !s.readPredict(w, r, pb, &req) {
		return
	}
	if err := req.Validate(m.Dim); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.m.PredictRequests.Add(1)
	start := time.Now()
	preds := predictBatch(m.Spec, m.Theta, req.Rows)
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	s.m.PredictLatency.Observe(elapsed)
	s.m.PredictLatencyFamily.With(m.Spec.Name()).Observe(elapsed)
	s.m.PredictionsServed.Add(int64(len(preds)))
	writeJSON(w, http.StatusOK, PredictResponse{ModelID: id, Predictions: preds})
}

// predictBlock is how many rows predictBatch views as dataset rows at a
// time; the views live in a stack array, so a batch allocates only what its
// rows and predictions do.
const predictBlock = 64

// predictBatch evaluates the model on every row through the shared
// compute pool (predictions are independent and specs are safe for
// concurrent Predict), so large batches parallelize without adding
// goroutines beyond the process-wide budget.
func predictBatch(spec models.Spec, theta []float64, rows [][]float64) []float64 {
	preds := make([]float64, len(rows))
	compute.For(len(rows), predictGrain, func(lo, hi int) {
		var block [predictBlock]dataset.Row
		for ; lo < hi; lo += predictBlock {
			b := block[:min(predictBlock, hi-lo)]
			for i := range b {
				b[i] = dataset.DenseRow(rows[lo+i])
			}
			models.PredictInto(spec, theta, b, preds[lo:])
		}
	})
	return preds
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		Models:        s.reg.Len(),
		Datasets:      s.store.Len(),
		Jobs:          s.queue.Len(),
		Workers:       s.queue.Workers(),
		Parallelism:   compute.Parallelism(),
		Goroutines:    runtime.NumGoroutine(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.coord != nil {
		st := s.coord.Status()
		h.Cluster = &ClusterHealth{
			Workers:      len(st.Workers),
			TasksPending: st.TasksPending,
			TasksLeased:  st.TasksLeased,
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// readJSON decodes the request body — exactly one JSON value — into v,
// writing a 400 on failure.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSON(w, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), v)
}

// decodeJSON decodes exactly one JSON value from body into v, writing a 413
// when body ends in an http.MaxBytesError and a 400 on any other failure.
func decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	// Decode stops at the end of the first value; anything but whitespace
	// after it means the client sent something other than what was parsed.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, errors.New("serve: bad request body: unexpected data after JSON value"))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
