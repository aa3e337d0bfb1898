package cluster

import (
	"expvar"

	"blinkml/internal/core"
	"blinkml/internal/obs"
)

// Metrics are the cluster's expvar counters in the "blinkml_cluster" map
// (an obs.Registry, so repeated coordinator construction reuses the same
// vars).
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

// sharedMetrics returns the coordinator's "blinkml_cluster" map, publishing
// it on first use.
func sharedMetrics() *Metrics {
	r := obs.NewRegistry("blinkml_cluster")
	return &Metrics{
		Workers:             r.Int("workers"),
		WorkersJoined:       r.Int("workers_joined"),
		WorkersLost:         r.Int("workers_lost"),
		TasksSubmitted:      r.Int("tasks_submitted"),
		TasksPending:        r.Int("tasks_pending"),
		TasksLeased:         r.Int("tasks_leased"),
		TasksSucceeded:      r.Int("tasks_succeeded"),
		TasksFailed:         r.Int("tasks_failed"),
		TasksCancelled:      r.Int("tasks_cancelled"),
		TasksRequeued:       r.Int("tasks_requeued"),
		LeasesGranted:       r.Int("leases_granted"),
		TaskLeaseWait:       r.Histogram("task_lease_wait_ms"),
		TaskLeaseToComplete: r.Histogram("task_lease_to_complete_ms"),
		DatasetsExported:    r.Int("datasets_exported"),
	}
}

// sharedWorkerMetrics returns the worker side's series — its env/plan
// cache's plan_cache_* — in the "blinkml_worker" map, publishing it on
// first use.
func sharedWorkerMetrics() *core.CacheMetrics {
	return core.NewCacheMetrics(obs.NewRegistry("blinkml_worker"))
}
