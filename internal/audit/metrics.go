package audit

import (
	"expvar"

	"blinkml/internal/obs"
)

// Metrics are the audit plane's expvar vars in the "blinkml_audit" map (an
// obs.Registry, so repeated Log construction reuses the same vars). The
// gauges are resynced from the loaded log on Open.
type Metrics struct {
	Records        *expvar.Int // calibration records appended
	Replays        *expvar.Int // replays completed (success or failure)
	ReplaysPending *expvar.Int // gauge: records with no replay yet
	ReplayFailures *expvar.Int // replays that errored (no coverage sample)
	// CoverageAlerts counts coverage-below-target alert firings — the
	// structured-log hook's machine-readable twin.
	CoverageAlerts *expvar.Int
	// ReplayLatency is wall time per replay (ms) — dominated by the
	// full-data training the guarantee is checked against.
	ReplayLatency *obs.Histogram
	// Coverage is the per-family empirical Pr[v ≤ ε̂] over completed
	// replays; the contract demands ≥ 1−δ.
	Coverage *obs.GaugeVec
	// CalibrationRatio is the per-replay ε̂/realized ratio distribution —
	// how conservative the estimator runs (≫1: loose bounds; <1: a
	// violation).
	CalibrationRatio *obs.HistogramVec
}

// sharedMetrics returns the "blinkml_audit" map, publishing it on first use.
func sharedMetrics() *Metrics {
	r := obs.NewRegistry("blinkml_audit")
	return &Metrics{
		Records:          r.Int("records"),
		Replays:          r.Int("replays"),
		ReplaysPending:   r.Int("replays_pending"),
		ReplayFailures:   r.Int("replay_failures"),
		CoverageAlerts:   r.Int("coverage_alerts"),
		ReplayLatency:    r.Histogram("replay_ms"),
		Coverage:         r.GaugeVec("coverage"),
		CalibrationRatio: r.HistogramVec("calibration_ratio"),
	}
}
