// Package serve implements blinkml-serve: an HTTP training-and-inference
// service over the BlinkML library. It has three pieces — an async job
// queue (training runs and hyperparameter searches) with a bounded worker
// pool and per-job context cancellation, a model registry with versioned
// persistence to disk (via modelio), and the JSON HTTP API that ties them
// together:
//
//	POST   /v1/train               enqueue a training job, returns a job id
//	POST   /v1/tune                enqueue a hyperparameter search, returns a job id
//	GET    /v1/jobs                list jobs (?state= filters by state)
//	GET    /v1/jobs/{id}           job status + Figure-8 phase breakdown (+ tune leaderboard)
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	POST   /v1/datasets            streaming CSV/LibSVM upload into the dataset store
//	GET    /v1/datasets            list stored datasets
//	GET    /v1/datasets/{id}       dataset manifest (shape, task, label stats)
//	DELETE /v1/datasets/{id}       evict a dataset from store and disk
//	GET    /v1/models              list stored models
//	GET    /v1/models/{id}         model metadata (?theta=1 adds parameters)
//	DELETE /v1/models/{id}         evict a model from registry and disk
//	POST   /v1/models/{id}/predict batched prediction over many rows
//	GET    /v1/audit               per-family empirical (ε, δ) coverage rollup
//	GET    /v1/audit/records       every calibration record joined with its replay
//	POST   /v1/audit/replay        replay pending records now (body: {model_id?, max?})
//	GET    /v1/debug/flightrecords list on-disk flight-record bundles
//	GET    /v1/debug/flightrecords/{name}        one bundle's manifest
//	GET    /v1/debug/flightrecords/{name}/{file} fetch a bundle file
//	GET    /healthz                liveness + registry/store/queue snapshot
//	GET    /metrics                Prometheus text exposition (counters + latency histograms)
//	GET    /metrics.json           raw expvar JSON (the pre-Prometheus /metrics shape)
//
// Every train, tune trial and audit replay is a cluster.TaskSpec run by one
// task function. In cluster mode (Config.Cluster) the coordinator protocol
// is mounted under /v1/cluster (see internal/cluster) and tasks execute on
// remote blinkml-worker processes; otherwise the same function runs them
// in-process.
//
// Training and tuning requests reference data three ways: synthetic
// workloads, inline rows, or a dataset_id naming a stored upload — the
// out-of-core path, which materializes only sampled rows.
//
// This file defines the wire types serve owns. What another package computes
// travels as that package's type — the dataset reference is
// cluster.DatasetRef, a search is tune.RandomSpace in and tune.Result out, a
// replay is audit.Replay, a model modelio.Model — and the blinkml CLIs print
// the same types for -json, so one struct describes each thing everywhere.
package serve

import (
	"errors"
	"fmt"
	"time"

	"blinkml/internal/audit"
	"blinkml/internal/cluster"
	"blinkml/internal/core"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
	"blinkml/internal/tune"
)

// TrainRequest is the body of POST /v1/train: a model spec, a dataset
// reference, and the (ε, δ) accuracy contract.
type TrainRequest struct {
	Model   modelio.SpecJSON `json:"model"`
	Dataset DatasetRef       `json:"dataset"`
	// Epsilon is the requested error bound ε in (0, 1].
	Epsilon float64 `json:"epsilon"`
	// Delta is the allowed violation probability δ (default 0.05).
	Delta   float64      `json:"delta,omitempty"`
	Options TrainOptions `json:"options,omitzero"`
}

// TrainOptions exposes the tuning knobs of core.Options that make sense
// per-request; everything omitted keeps the library default.
type TrainOptions struct {
	Seed              int64 `json:"seed,omitempty"`
	InitialSampleSize int   `json:"initial_sample_size,omitempty"`
	MinSampleSize     int   `json:"min_sample_size,omitempty"`
	MaxIters          int   `json:"max_iters,omitempty"`
	WarmStart         bool  `json:"warm_start,omitempty"`
}

// Validate checks the request before it is admitted to the queue, so a
// malformed request fails at submit time rather than inside a worker.
func (r *TrainRequest) Validate() error {
	if _, err := r.Model.Spec(); err != nil {
		return err
	}
	if r.Epsilon <= 0 || r.Epsilon > 1 {
		return fmt.Errorf("serve: epsilon must be in (0,1], got %v", r.Epsilon)
	}
	if r.Delta < 0 || r.Delta >= 1 {
		return fmt.Errorf("serve: delta must be in [0,1), got %v", r.Delta)
	}
	return r.Dataset.Validate()
}

// DatasetRef is cluster.DatasetRef under the name requests were written
// against: a request body, an audit record and a task all carry that one type.
type DatasetRef = cluster.DatasetRef

// TrainResponse acknowledges an enqueued job.
type TrainResponse struct {
	JobID string `json:"job_id"`
	// State is the state at admission ("queued").
	State string `json:"state"`
	// TraceID identifies the request's trace: the caller's X-Blinkml-Trace
	// header value, or a freshly minted ID. Every span and log line the job
	// produces — locally or on a cluster worker — carries it.
	TraceID string `json:"trace_id,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID string `json:"id"`
	// Kind is the job type: "train" or "tune".
	Kind  string `json:"kind,omitempty"`
	State string `json:"state"` // queued | running | succeeded | failed | cancelled
	// ModelID is set once the job succeeds (for tune jobs, the winning
	// model).
	ModelID string `json:"model_id,omitempty"`
	Error   string `json:"error,omitempty"`
	// Diagnostics carries the Figure-8 phase breakdown once the job is done
	// (for tune jobs, the winning candidate's breakdown).
	Diagnostics *PhaseBreakdown `json:"diagnostics,omitempty"`
	// Tune carries the search leaderboard for finished tune jobs.
	Tune *tune.Result `json:"tune,omitempty"`
	// Plan says why a finished train job was cheap or not: "hit" when the
	// initial model, statistics and accuracy draws came from a plan an
	// earlier job on the same data had built, "miss" when this job built it.
	// The model is bit-identical either way.
	Plan string `json:"plan,omitempty"`
	// TraceID is the job's trace identity (also inside Trace, but present
	// from admission — before any span exists).
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the per-stage timing breakdown recorded while the job ran
	// (set once spans exist, i.e. when the job has finished or is far
	// enough along to have recorded stages).
	Trace      *TraceReport `json:"trace,omitempty"`
	EnqueuedAt time.Time    `json:"enqueued_at"`
	StartedAt  time.Time    `json:"started_at,omitzero"`
	FinishedAt time.Time    `json:"finished_at,omitzero"`
	// Audit joins the job's guarantee-calibration record (appended when its
	// model registered) and, once the auditor has replayed the job, the
	// realized coverage sample. Set only on GET /v1/jobs/{id}.
	Audit *audit.Entry `json:"audit,omitempty"`
	// Resources is the job's resource-attribution ledger: CPU self-time,
	// kernel flops, rows/bytes materialized, queue wait, registry I/O — live
	// while the job runs, sealed when it finishes. In cluster mode the
	// worker-side charges are merged in, so the coordinator's job record
	// carries the whole cost.
	Resources *obs.LedgerSnapshot `json:"resources,omitempty"`
}

// TraceReport is a finished job's span breakdown: per-stage aggregates in
// pipeline order (ingest, sample, statistics, probe, optimize, registry),
// plus the raw spans. Spans recorded on cluster workers carry the worker
// name. DroppedSpans counts overflow beyond the per-job recording cap.
type TraceReport struct {
	TraceID      string      `json:"trace_id"`
	Stages       []obs.Stage `json:"stages"`
	Spans        []obs.Span  `json:"spans,omitempty"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
}

// Done reports whether the job has reached a terminal state.
func (s JobStatus) Done() bool {
	return s.State == JobSucceeded || s.State == JobFailed || s.State == JobCancelled
}

// JobList is the body of GET /v1/jobs (oldest first; ?state= filters).
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// PhaseBreakdown is the paper's Figure-8a decomposition of where training
// time went, in milliseconds, plus the estimator's decision trail: ε₀, the
// sampling factor's rank, and every sample-size probe behind the chosen n.
type PhaseBreakdown struct {
	InitialTrainMs float64     `json:"initial_train_ms"`
	StatisticsMs   float64     `json:"statistics_ms"`
	SampleSearchMs float64     `json:"sample_search_ms"`
	FinalTrainMs   float64     `json:"final_train_ms"`
	TotalMs        float64     `json:"total_ms"`
	InitialEpsilon float64     `json:"initial_epsilon"`
	InitialIters   int         `json:"initial_iters"`
	FinalIters     int         `json:"final_iters,omitempty"`
	Method         string      `json:"method"`
	Rank           int         `json:"rank,omitempty"`
	Probes         []ProbeJSON `json:"probes,omitempty"`
}

// ProbeJSON is one Sample Size Estimator evaluation (core.Probe on the
// wire): the candidate n, the fraction of sampled model pairs within ε at
// that n, and whether it reached the conservative level.
type ProbeJSON struct {
	N         int     `json:"n"`
	Fraction  float64 `json:"fraction"`
	Satisfied bool    `json:"satisfied"`
}

// NewPhaseBreakdown converts core diagnostics to the wire form.
func NewPhaseBreakdown(d core.Diagnostics) *PhaseBreakdown {
	ms := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }
	pb := &PhaseBreakdown{
		InitialTrainMs: ms(d.InitialTrain),
		StatisticsMs:   ms(d.Statistics),
		SampleSearchMs: ms(d.SampleSearch),
		FinalTrainMs:   ms(d.FinalTrain),
		TotalMs:        ms(d.Total()),
		InitialEpsilon: d.InitialEpsilon,
		InitialIters:   d.InitialIters,
		FinalIters:     d.FinalIters,
		Method:         d.Method.String(),
		Rank:           d.Rank,
	}
	for _, p := range d.Probes {
		pb.Probes = append(pb.Probes, ProbeJSON(p))
	}
	return pb
}

// ModelInfo is the metadata view of a stored model (GET /v1/models/{id});
// Theta is included only when explicitly requested.
type ModelInfo struct {
	ID               string           `json:"id,omitempty"`
	Spec             modelio.SpecJSON `json:"spec"`
	Dim              int              `json:"dim"`
	SampleSize       int              `json:"sample_size"`
	PoolSize         int              `json:"pool_size"`
	EstimatedEpsilon float64          `json:"estimated_epsilon"`
	UsedInitialModel bool             `json:"used_initial_model"`
	CreatedAt        time.Time        `json:"created_at,omitzero"`
	Theta            []float64        `json:"theta,omitempty"`
}

// NewModelInfo builds the wire view of a stored model.
func NewModelInfo(id string, m *modelio.Model) (ModelInfo, error) {
	sj, err := modelio.SpecToJSON(m.Spec)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		ID:               id,
		Spec:             sj,
		Dim:              m.Dim,
		SampleSize:       m.SampleSize,
		PoolSize:         m.PoolSize,
		EstimatedEpsilon: m.EstimatedEpsilon,
		UsedInitialModel: m.UsedInitialModel,
		CreatedAt:        m.CreatedAt,
	}, nil
}

// ModelList is the body of GET /v1/models.
type ModelList struct {
	Models []ModelInfo `json:"models"`
}

// PredictRequest is the body of POST /v1/models/{id}/predict: many rows,
// one round trip.
type PredictRequest struct {
	Rows [][]float64 `json:"rows"`
}

// Validate checks shape and finiteness against the model's dimension.
func (r *PredictRequest) Validate(dim int) error {
	if len(r.Rows) == 0 {
		return errors.New("serve: predict needs at least one row")
	}
	for i, row := range r.Rows {
		if len(row) != dim {
			return fmt.Errorf("serve: row %d has %d features, model wants %d", i, len(row), dim)
		}
		if j, _, found := dataset.FirstNonFinite(nil, row); found {
			return fmt.Errorf("serve: row %d feature %d is not finite", i, j)
		}
	}
	return nil
}

// PredictResponse returns one prediction per input row, in order.
type PredictResponse struct {
	ModelID     string    `json:"model_id"`
	Predictions []float64 `json:"predictions"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status   string `json:"status"`
	Models   int    `json:"models"`
	Datasets int    `json:"datasets"`
	Jobs     int    `json:"jobs"`
	Workers  int    `json:"workers"`
	// Parallelism is the process-wide compute-pool degree shared by every
	// training kernel (see Config.Parallelism).
	Parallelism int `json:"parallelism"`
	// Goroutines is the live goroutine count (the same signal exported as
	// blinkml_go_goroutines on /metrics) — a cheap leak/overload check.
	Goroutines int `json:"goroutines"`
	// UptimeSeconds is time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Cluster reports coordinator state (cluster mode only).
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth is the healthz view of the embedded coordinator.
type ClusterHealth struct {
	// Workers is the number of registered, live cluster workers.
	Workers int `json:"workers"`
	// TasksPending and TasksLeased snapshot the coordinator's task queue.
	TasksPending int `json:"tasks_pending"`
	TasksLeased  int `json:"tasks_leased"`
}

// ErrorResponse is the uniform error body. Jobs carries the referencing job
// ids when a dataset delete is refused with 409.
type ErrorResponse struct {
	Error string   `json:"error"`
	Jobs  []string `json:"jobs,omitempty"`
}

// RunReport is the machine-readable result of a one-shot blinkml CLI run
// (-json). It reuses ModelInfo and PhaseBreakdown so scripted consumers see
// the same shapes the server produces.
type RunReport struct {
	Dataset  DatasetInfo     `json:"dataset"`
	Contract Contract        `json:"contract"`
	Model    ModelInfo       `json:"model"`
	Phases   *PhaseBreakdown `json:"phases,omitempty"`
	Full     *FullComparison `json:"full_comparison,omitempty"`
	// Resources is the run's resource-attribution ledger (same shape the
	// server reports on GET /v1/jobs/{id}).
	Resources *obs.LedgerSnapshot `json:"resources,omitempty"`
}

// DatasetInfo describes the workload a CLI run trained on.
type DatasetInfo struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Dim  int    `json:"dim"`
}

// Contract is the requested (ε, δ) pair.
type Contract struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// FullComparison reports the realized difference against a fully trained
// model (the CLI's -compare-full path).
type FullComparison struct {
	RealizedDiff float64 `json:"realized_diff"`
	ContractMet  bool    `json:"contract_met"`
}
