package serve

import (
	"expvar"
	"sync"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/obs"
)

// Metrics are the service's expvar counters and latency histograms,
// published once under the "blinkml" map so repeated server construction
// (tests, restarts in one process) reuses the same vars instead of
// panicking on re-publish. Latencies are obs.Histograms — log-scale
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

var (
	metricsOnce sync.Once
	metrics     *Metrics
)

// sharedMetrics returns the process-wide metrics, publishing them on first
// use.
func sharedMetrics() *Metrics {
	metricsOnce.Do(func() {
		m := expvar.NewMap("blinkml")
		newInt := func(name string) *expvar.Int {
			v := new(expvar.Int)
			m.Set(name, v)
			return v
		}
		newHist := func(name string) *obs.Histogram {
			v := obs.NewHistogram()
			m.Set(name, v)
			return v
		}
		metrics = &Metrics{
			JobsQueued:           newInt("jobs_queued"),
			JobsRunning:          newInt("jobs_running"),
			JobsSucceeded:        newInt("jobs_succeeded"),
			JobsFailed:           newInt("jobs_failed"),
			JobsCancelled:        newInt("jobs_cancelled"),
			TrainRuns:            newInt("train_runs"),
			TrainLatency:         newHist("train_latency_ms"),
			SampleSizeSum:        newInt("sample_size_sum"),
			SampleSizeLast:       newInt("sample_size_last"),
			TuneRuns:             newInt("tune_runs"),
			TuneLatency:          newHist("tune_latency_ms"),
			TuneCandidates:       newInt("tune_candidates"),
			TuneCandidatesPruned: newInt("tune_candidates_pruned"),
			PredictRequests:      newInt("predict_requests"),
			PredictionsServed:    newInt("predictions_served"),
			PredictLatency:       newHist("predict_latency_ms"),
			ModelsStored:         newInt("models_stored"),

			DatasetsStored:     newInt("datasets_stored"),
			DatasetBytes:       newInt("dataset_bytes"),
			DatasetsSparseRows: newInt("datasets_sparse_rows"),
			DatasetSparseNNZ:   newInt("datasets_sparse_nnz"),
			IngestRows:         newInt("ingest_rows"),
			IngestLatency:      newHist("ingest_ms"),
			SampleRows:         newInt("sample_rows_materialized"),
			MaterializeLatency: newHist("sample_materialize_ms"),
		}
		metrics.TrainLatencyFamily = obs.NewHistogramVec()
		m.Set("train_latency_family_ms", metrics.TrainLatencyFamily)
		metrics.PredictLatencyFamily = obs.NewHistogramVec()
		m.Set("predict_latency_family_ms", metrics.PredictLatencyFamily)
		metrics.JobCPUFamily = obs.NewHistogramVec()
		m.Set("job_cpu_ms", metrics.JobCPUFamily)
		metrics.JobAllocFamily = obs.NewHistogramVec()
		m.Set("job_alloc_bytes", metrics.JobAllocFamily)
		metrics.PlanCache = core.NewCacheMetrics(m)
	})
	return metrics
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
