// Package cluster implements BlinkML's coordinator/worker distributed
// execution layer. A coordinator — embedded in blinkml-serve when cluster
// mode is on — owns a queue of tasks (full training runs and individual
// hyperparameter-search trials) and leases them to blinkml-worker processes
// that register over HTTP, heartbeat, and advertise capacity. Workers fetch
// the datasets a task references from the coordinator's store (checksummed,
// cached locally, fetched at most once per content), rebuild the exact
// training environment the in-process path would use, and ship results
// back — trained models travel in the versioned modelio format straight
// into the coordinator's registry.
//
// The contract that makes the fan-out safe to reason about:
//
//   - Determinism: a task is a pure function of its payload. Given the same
//     dataset bytes, seed, and compute parallelism, a worker produces
//     bit-identical results to the in-process path — so requeueing a task
//     after a worker dies cannot change the answer, only the latency.
//   - Leases are fenced: a task is leased to one worker at a time, and a
//     completion from anyone but the current leaseholder is rejected. A
//     worker presumed dead that comes back cannot overwrite the result of
//     the retry that replaced it.
//   - Failure policy: worker loss (heartbeat timeout) or graceful worker
//     shutdown requeues the task, up to Config.MaxAttempts, after which the
//     task fails with a TaskError recording every attempt. An error
//     *reported* by a worker is deterministic (training genuinely failed)
//     and fails the task immediately — retrying it elsewhere would burn a
//     machine to get the same error.
//   - Cancellation propagates: cancelling a task marks pending work
//     terminal at once and tells the leaseholder to stop via its next
//     heartbeat or lease response; the training loop observes its context
//     between optimizer iterations.
//
// HTTP surface (mounted by the serving layer under /v1/cluster):
//
//	POST /v1/cluster/register       worker joins, gets an id + protocol timings
//	POST /v1/cluster/heartbeat      liveness + lease renewal; returns cancellations
//	POST /v1/cluster/lease          long-poll for a task (renews liveness too)
//	POST /v1/cluster/complete       deliver a task result (lease-fenced)
//	GET  /v1/cluster/datasets/{id}  stream a dataset bundle (store export format)
//	GET  /v1/cluster/status         workers + queue snapshot
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"blinkml/internal/audit"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/obs"
)

// TaskKind tags what a task payload carries.
type TaskKind string

const (
	// KindTrain is a full BlinkML training run (POST /v1/train shaped).
	KindTrain TaskKind = "train"
	// KindTrial is one hyperparameter-search trial: a halving rung or a
	// contract training of a single candidate.
	KindTrial TaskKind = "trial"
	// KindAudit is a guarantee replay: train the full-data model at the
	// recorded options and measure the realized difference against the
	// shipped approximate model.
	KindAudit TaskKind = "audit"
)

// TaskSpec is the wire form of one schedulable unit. Exactly one payload
// field is set, matching Kind.
type TaskSpec struct {
	Kind TaskKind `json:"kind"`
	// Trace is the originating request's trace ID; it travels with the task
	// (and in the X-Blinkml-Trace header of lease responses) so worker-side
	// spans and log lines rejoin the submitting job's trace.
	Trace string     `json:"trace,omitempty"`
	Train *TrainTask `json:"train,omitempty"`
	Trial *TrialTask `json:"trial,omitempty"`
	Audit *AuditTask `json:"audit,omitempty"`
}

// Validate checks the spec shape before admission.
func (s *TaskSpec) Validate() error {
	switch s.Kind {
	case KindTrain:
		if s.Train == nil {
			return errors.New("cluster: train task without payload")
		}
		return s.Train.Dataset.Validate()
	case KindTrial:
		if s.Trial == nil {
			return errors.New("cluster: trial task without payload")
		}
		return s.Trial.Dataset.Validate()
	case KindAudit:
		if s.Audit == nil {
			return errors.New("cluster: audit task without payload")
		}
		if len(s.Audit.Theta) == 0 {
			return errors.New("cluster: audit task without approximate model parameters")
		}
		return s.Audit.Dataset.Validate()
	default:
		return fmt.Errorf("cluster: unknown task kind %q", s.Kind)
	}
}

// DatasetRef names training data, in a POST /v1/train or /v1/tune body, in
// an audit record and in every task: exactly one of Synthetic (a paper-shaped
// generated workload), Inline (rows carried in the payload), or ID (a dataset
// in the server's store — the out-of-core path, which materializes only the
// rows a job samples) is set. Rows and the checksums are the pin, filled in
// by the server when it admits the reference and never by a client: they fix
// a stored id to its content, so a worker's cached copy is either provably
// the same bytes or refetched, and Rows sizes a search's pool for any kind.
type DatasetRef struct {
	Synthetic  *datagen.Ref    `json:"synthetic,omitempty"`
	Inline     *dataset.Inline `json:"inline,omitempty"`
	ID         string          `json:"dataset_id,omitempty"`
	Rows       int             `json:"rows,omitempty"`
	RowCRC32   uint32          `json:"row_crc32,omitempty"`
	IndexCRC32 uint32          `json:"index_crc32,omitempty"`
}

// Validate checks that exactly one source is named and well-formed: a
// generator that exists, an inline payload with a shape.
func (r *DatasetRef) Validate() error {
	set := 0
	if r.ID != "" {
		set++
	}
	if r.Synthetic != nil {
		set++
	}
	if r.Inline != nil {
		set++
	}
	switch {
	case set == 0:
		return errors.New("cluster: missing dataset (set synthetic, inline, or dataset_id)")
	case set > 1:
		return errors.New("cluster: dataset must name exactly one of synthetic, inline, or dataset_id")
	case r.Synthetic != nil:
		_, _, err := r.Synthetic.Shape()
		return err
	case r.Inline != nil:
		return r.Inline.Validate()
	}
	return nil
}

// Submitted returns r without its pin: the reference as a client names it
// and as an audit record keeps it.
func (r DatasetRef) Submitted() DatasetRef {
	r.Rows, r.RowCRC32, r.IndexCRC32 = 0, 0, 0
	return r
}

// Key returns a stable identity for caching: datasets with equal keys are
// the same bytes.
func (r *DatasetRef) Key() string {
	switch {
	case r.ID != "":
		return fmt.Sprintf("%s%08x:%08x", DatasetKeyPrefix(r.ID), r.RowCRC32, r.IndexCRC32)
	case r.Synthetic != nil:
		s := r.Synthetic
		return fmt.Sprintf("syn:%s:%d:%d:%d", s.Name, s.Rows, s.Dim, s.Seed)
	case r.Inline != nil:
		// Inline data rides in the payload itself, so identity must come
		// from the content.
		return fmt.Sprintf("inline:%s:%d:%016x", r.Inline.Task, len(r.Inline.X), r.Inline.ContentHash())
	default:
		return "none"
	}
}

// DatasetKeyPrefix is what the Key of every version of stored dataset id
// starts with (and no other key does): what to drop from a cache when the
// id's files go away.
func DatasetKeyPrefix(id string) string { return "id:" + id + ":" }

// TrainTask is a full BlinkML training run. Options, here and in the other
// task kinds, is core.Options in its one JSON form — everything a worker
// needs to rebuild the coordinator's exact training environment.
type TrainTask struct {
	Spec    modelio.SpecJSON `json:"spec"`
	Dataset DatasetRef       `json:"dataset"`
	Options core.Options     `json:"options"`
}

// TrialTask is one hyperparameter-search trial (see tune.Trial). The worker
// rebuilds the search environment from (Dataset, Options) — identical to
// the coordinator's by determinism of the split — and runs the single
// trial.
type TrialTask struct {
	Spec    modelio.SpecJSON `json:"spec"`
	Dataset DatasetRef       `json:"dataset"`
	Options core.Options     `json:"options"`
	// Contract selects a full (ε, δ) training; otherwise a halving rung.
	Contract bool `json:"contract,omitempty"`
	// N is the rung subsample size; Rung the 0-based rung index.
	N    int       `json:"n,omitempty"`
	Rung int       `json:"rung,omitempty"`
	Warm []float64 `json:"warm,omitempty"`
}

// AuditTask is one guarantee replay. The worker rebuilds the recorded
// environment from (Dataset, Options) — identical to the original job's by
// determinism of the split — trains the full-data model, and compares the
// shipped Theta against it at Bound.
type AuditTask struct {
	Spec    modelio.SpecJSON `json:"spec"`
	Dataset DatasetRef       `json:"dataset"`
	Options core.Options     `json:"options"`
	// Theta is the approximate model under audit.
	Theta []float64 `json:"theta"`
	// Bound is the ε̂ the model shipped with.
	Bound float64 `json:"bound"`
}

// TaskResultPayload is what a worker ships back for a finished task.
type TaskResultPayload struct {
	// Model is the modelio envelope of the trained model (train tasks and
	// contract trials) — the exact bytes the coordinator registers.
	Model []byte `json:"model,omitempty"`
	// Theta is the raw parameter vector (rung trials, which produce
	// intermediate fits rather than registrable models).
	Theta []float64 `json:"theta,omitempty"`
	// Score is the trial's evaluation score; nil encodes NaN (model classes
	// without a supervised metric).
	Score *float64 `json:"score,omitempty"`
	// SampleSize is the rows of the training run (rung trials).
	SampleSize int `json:"sample_size,omitempty"`
	// Spans are the pipeline-stage spans the worker recorded while running
	// the task, stamped with the worker's name; the coordinator merges them
	// into the originating job's trace.
	Spans []obs.Span `json:"spans,omitempty"`
	// Ledger is the worker-side resource ledger of the task — CPU self-time,
	// kernel calls/flops, rows and bytes materialized, bundle-cache traffic.
	// The coordinator merges it into the originating job's ledger and rolls
	// its totals into the worker's fleet-scoreboard counters.
	Ledger *obs.LedgerSnapshot `json:"ledger,omitempty"`
	// Plan says whether a contract found its plan in the worker's cache
	// ("hit") or built it ("miss"); it rejoins the job status like the ledger.
	Plan string `json:"plan,omitempty"`
	// ReplayOutcome is what an audit task measured (nil for the other
	// kinds); its keys sit beside the ones above.
	*audit.ReplayOutcome
}

// TaskError is the structured terminal error of a task that exhausted its
// attempts or failed deterministically. The serving layer surfaces it as
// the job error.
type TaskError struct {
	// TaskID is the cluster task id ("t-000001").
	TaskID string
	// Attempts is how many leases the task consumed.
	Attempts int
	// Reason is the final failure ("worker lost", or the worker's error).
	Reason string
	// Log records one line per failed attempt, oldest first.
	Log []string
}

// Error implements error with a stable, greppable shape.
func (e *TaskError) Error() string {
	msg := fmt.Sprintf("cluster: task %s failed after %d attempt(s): %s", e.TaskID, e.Attempts, e.Reason)
	if len(e.Log) > 0 {
		msg += " [" + strings.Join(e.Log, "; ") + "]"
	}
	return msg
}

// Protocol messages.

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human label for logs and status (defaults to the id).
	Name string `json:"name,omitempty"`
	// Capacity is how many tasks the worker runs concurrently.
	Capacity int `json:"capacity"`
	// Parallelism is the worker's compute-pool degree (advertised for
	// status; kernels inside one task use it fully).
	Parallelism int `json:"parallelism"`
}

// RegisterResponse assigns the worker its id and the protocol timings the
// coordinator enforces.
type RegisterResponse struct {
	WorkerID            string `json:"worker_id"`
	HeartbeatIntervalMs int64  `json:"heartbeat_interval_ms"`
	// HeartbeatTimeoutMs is how long the coordinator waits before declaring
	// the worker dead and requeueing its tasks.
	HeartbeatTimeoutMs int64 `json:"heartbeat_timeout_ms"`
}

// HeartbeatRequest renews liveness and the leases of the listed tasks.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Running  []string `json:"running,omitempty"`
}

// HeartbeatResponse carries cancellation notices for the worker's tasks.
type HeartbeatResponse struct {
	Cancel []string `json:"cancel,omitempty"`
}

// LeaseRequest asks for one task, long-polling up to WaitMs.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMs   int64  `json:"wait_ms,omitempty"`
}

// LeaseResponse hands the worker a task (HTTP 204 means none available).
type LeaseResponse struct {
	TaskID string   `json:"task_id"`
	Spec   TaskSpec `json:"spec"`
	// Cancel piggybacks cancellation notices (same as heartbeat).
	Cancel []string `json:"cancel,omitempty"`
}

// CompleteRequest delivers a task outcome. Exactly one of Result, Error, or
// the Cancelled/Requeue flags describes it: Error is a deterministic
// training failure (fails the task), Cancelled acknowledges a cancellation,
// and Requeue signals the worker could not finish for reasons of its own
// (graceful shutdown) so the task should run elsewhere.
type CompleteRequest struct {
	WorkerID  string             `json:"worker_id"`
	TaskID    string             `json:"task_id"`
	Result    *TaskResultPayload `json:"result,omitempty"`
	Error     string             `json:"error,omitempty"`
	Cancelled bool               `json:"cancelled,omitempty"`
	Requeue   bool               `json:"requeue,omitempty"`
}

// Status is the coordinator snapshot (GET /v1/cluster/status, healthz).
type Status struct {
	Workers      []WorkerStatus `json:"workers"`
	TasksPending int            `json:"tasks_pending"`
	TasksLeased  int            `json:"tasks_leased"`
}

// WorkerStatus describes one live worker, including its fleet-scoreboard
// counters: lifetime completions and failures, the derived error rate, and
// the p95 of lease-to-complete latency (how long tasks spend on this
// worker once leased — a slow or overloaded box shows here first).
type WorkerStatus struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Capacity    int       `json:"capacity"`
	Parallelism int       `json:"parallelism"`
	Leased      int       `json:"leased"`
	LastSeen    time.Time `json:"last_seen"`

	TasksCompleted       int64   `json:"tasks_completed"`
	TasksFailed          int64   `json:"tasks_failed"`
	ErrorRate            float64 `json:"error_rate"`
	P95LeaseToCompleteMs float64 `json:"p95_lease_to_complete_ms"`

	// CPUMs and AllocBytes roll up the resource ledgers of the tasks this
	// worker completed: pool CPU milliseconds spent and data-plane bytes
	// materialized on the worker's side.
	CPUMs      float64 `json:"cpu_ms"`
	AllocBytes int64   `json:"alloc_bytes"`
}
