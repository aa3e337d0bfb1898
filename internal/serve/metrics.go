package serve

import (
	"expvar"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/obs"
)

// Metrics are the service's expvar counters and latency histograms in the
// "blinkml" map (an obs.Registry, so repeated server construction reuses
// the same vars). Latencies are obs.Histograms — log-scale
// buckets with p50/p95/p99 at read time — rendered in Prometheus
// text form on GET /metrics and as JSON summaries on GET /metrics.json.
type Metrics struct {
	JobsQueued    *expvar.Int // total jobs admitted
	JobsRunning   *expvar.Int // gauge: jobs currently training
	JobsSucceeded *expvar.Int
	JobsFailed    *expvar.Int
	JobsCancelled *expvar.Int

	TrainRuns    *expvar.Int    // completed training runs
	TrainLatency *obs.Histogram // wall-clock train latency (ms)
	// TrainLatencyFamily breaks train latency down per model family — a
	// bounded label set (obs.ModelFamilies plus "other"), so no request
	// input can mint new series.
	TrainLatencyFamily *obs.HistogramVec
	SampleSizeSum      *expvar.Int // sum of chosen sample sizes n
	SampleSizeLast     *expvar.Int // most recent chosen n

	TuneRuns             *expvar.Int    // completed hyperparameter searches
	TuneLatency          *obs.Histogram // wall-clock search latency (ms)
	TuneCandidates       *expvar.Int    // candidates entered across searches
	TuneCandidatesPruned *expvar.Int    // candidates dropped by successive halving

	PredictRequests   *expvar.Int    // predict calls
	PredictionsServed *expvar.Int    // individual rows predicted
	PredictLatency    *obs.Histogram // per-request predict latency (ms)
	// PredictLatencyFamily is PredictLatency per model family (same
	// bounded label set as TrainLatencyFamily).
	PredictLatencyFamily *obs.HistogramVec
	ModelsStored         *expvar.Int // gauge: models in the registry

	DatasetsStored     *expvar.Int    // gauge: datasets in the store
	DatasetBytes       *expvar.Int    // gauge: store bytes on disk
	DatasetsSparseRows *expvar.Int    // gauge: rows stored in the sparse encoding
	DatasetSparseNNZ   *expvar.Int    // gauge: stored entries across sparse datasets
	IngestRows         *expvar.Int    // rows ingested across uploads
	IngestLatency      *obs.Histogram // per-upload ingest latency (ms)
	SampleRows         *expvar.Int    // rows materialized from the store
	MaterializeLatency *obs.Histogram // per-sample materialization latency (ms)

	// JobCPUFamily / JobAllocFamily distribute each finished job's ledger
	// totals (pool CPU milliseconds; data-plane bytes materialized) per model
	// family — the same bounded label set as TrainLatencyFamily, rendered as
	// blinkml_job_cpu_ms / blinkml_job_alloc_bytes on /metrics.
	JobCPUFamily   *obs.HistogramVec
	JobAllocFamily *obs.HistogramVec

	// PlanCache is the env/plan cache's plan_cache_* series.
	PlanCache *core.CacheMetrics
}

// sharedMetrics returns the process-wide "blinkml" map, publishing it on
// first use.
func sharedMetrics() *Metrics {
	r := obs.NewRegistry("blinkml")
	return &Metrics{
		JobsQueued:           r.Int("jobs_queued"),
		JobsRunning:          r.Int("jobs_running"),
		JobsSucceeded:        r.Int("jobs_succeeded"),
		JobsFailed:           r.Int("jobs_failed"),
		JobsCancelled:        r.Int("jobs_cancelled"),
		TrainRuns:            r.Int("train_runs"),
		TrainLatency:         r.Histogram("train_latency_ms"),
		TrainLatencyFamily:   r.HistogramVec("train_latency_family_ms"),
		SampleSizeSum:        r.Int("sample_size_sum"),
		SampleSizeLast:       r.Int("sample_size_last"),
		TuneRuns:             r.Int("tune_runs"),
		TuneLatency:          r.Histogram("tune_latency_ms"),
		TuneCandidates:       r.Int("tune_candidates"),
		TuneCandidatesPruned: r.Int("tune_candidates_pruned"),
		PredictRequests:      r.Int("predict_requests"),
		PredictionsServed:    r.Int("predictions_served"),
		PredictLatency:       r.Histogram("predict_latency_ms"),
		PredictLatencyFamily: r.HistogramVec("predict_latency_family_ms"),
		ModelsStored:         r.Int("models_stored"),

		DatasetsStored:     r.Int("datasets_stored"),
		DatasetBytes:       r.Int("dataset_bytes"),
		DatasetsSparseRows: r.Int("datasets_sparse_rows"),
		DatasetSparseNNZ:   r.Int("datasets_sparse_nnz"),
		IngestRows:         r.Int("ingest_rows"),
		IngestLatency:      r.Histogram("ingest_ms"),
		SampleRows:         r.Int("sample_rows_materialized"),
		MaterializeLatency: r.Histogram("sample_materialize_ms"),

		JobCPUFamily:   r.HistogramVec("job_cpu_ms"),
		JobAllocFamily: r.HistogramVec("job_alloc_bytes"),
		PlanCache:      core.NewCacheMetrics(r),
	}
}

// storeObserver feeds store events into the expvar counters (it implements
// store.Observer).
type storeObserver struct{ m *Metrics }

func (o storeObserver) IngestDone(rows int, bytes int64, d time.Duration) {
	o.m.IngestRows.Add(int64(rows))
	o.m.IngestLatency.Observe(float64(d) / float64(time.Millisecond))
}

func (o storeObserver) Materialized(rows int, d time.Duration) {
	o.m.SampleRows.Add(int64(rows))
	o.m.MaterializeLatency.Observe(float64(d) / float64(time.Millisecond))
}
