package cluster

import (
	"expvar"
	"sync"

	"blinkml/internal/core"
	"blinkml/internal/obs"
)

// Metrics are the cluster's expvar counters, published once under the
// "blinkml_cluster" map so repeated coordinator construction (tests,
// restarts in one process) reuses the same vars instead of panicking on
// re-publish.
type Metrics struct {
	Workers       *expvar.Int // gauge: registered workers
	WorkersJoined *expvar.Int // total registrations
	WorkersLost   *expvar.Int // workers reaped on heartbeat timeout

	TasksSubmitted *expvar.Int
	TasksPending   *expvar.Int // gauge
	TasksLeased    *expvar.Int // gauge
	TasksSucceeded *expvar.Int
	TasksFailed    *expvar.Int
	TasksCancelled *expvar.Int
	TasksRequeued  *expvar.Int // requeues after worker loss / give-back
	LeasesGranted  *expvar.Int
	// TaskLeaseWait is how long a task sat queued before a worker leased it
	// (ms) — the scheduling delay a fleet that is too small shows first.
	TaskLeaseWait *obs.Histogram
	// TaskLeaseToComplete is how long a leased task took to come back
	// successfully (ms), fleet-wide; Status breaks it down per worker.
	TaskLeaseToComplete *obs.Histogram

	DatasetsExported *expvar.Int // bundle downloads served to workers
}

var (
	metricsOnce sync.Once
	metrics     *Metrics
)

func sharedMetrics() *Metrics {
	metricsOnce.Do(func() {
		m := expvar.NewMap("blinkml_cluster")
		newInt := func(name string) *expvar.Int {
			v := new(expvar.Int)
			m.Set(name, v)
			return v
		}
		metrics = &Metrics{
			Workers:          newInt("workers"),
			WorkersJoined:    newInt("workers_joined"),
			WorkersLost:      newInt("workers_lost"),
			TasksSubmitted:   newInt("tasks_submitted"),
			TasksPending:     newInt("tasks_pending"),
			TasksLeased:      newInt("tasks_leased"),
			TasksSucceeded:   newInt("tasks_succeeded"),
			TasksFailed:      newInt("tasks_failed"),
			TasksCancelled:   newInt("tasks_cancelled"),
			TasksRequeued:    newInt("tasks_requeued"),
			LeasesGranted:    newInt("leases_granted"),
			DatasetsExported: newInt("datasets_exported"),
		}
		metrics.TaskLeaseWait = obs.NewHistogram()
		m.Set("task_lease_wait_ms", metrics.TaskLeaseWait)
		metrics.TaskLeaseToComplete = obs.NewHistogram()
		m.Set("task_lease_to_complete_ms", metrics.TaskLeaseToComplete)
	})
	return metrics
}

var (
	workerMetricsOnce sync.Once
	workerMetrics     *core.CacheMetrics
)

// sharedWorkerMetrics returns the worker side's series — its env/plan
// cache's plan_cache_* — published once under the "blinkml_worker" map.
func sharedWorkerMetrics() *core.CacheMetrics {
	workerMetricsOnce.Do(func() {
		workerMetrics = core.NewCacheMetrics(expvar.NewMap("blinkml_worker"))
	})
	return workerMetrics
}
