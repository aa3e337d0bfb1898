package obs

import (
	"expvar"
	"sync"
)

// Registry is one named expvar map of series, the one way a package
// publishes metrics: GET /metrics renders every blinkml* map in Prometheus
// text form and GET /metrics.json serves it raw. Construction and every
// accessor are idempotent, so a second server, coordinator or log built in
// one process (tests, restarts) gets the vars already published where
// expvar itself would panic on the duplicate name. A map is published when
// its registry is first built, not before. Callers keep the returned
// pointers; no hot path looks a series up by name.
type Registry struct{ m *expvar.Map }

// registryMu serialises the look-up-or-publish steps across registries.
var registryMu sync.Mutex

// NewRegistry returns the map published as name, publishing it on first use.
func NewRegistry(name string) *Registry {
	registryMu.Lock()
	defer registryMu.Unlock()
	if m, ok := expvar.Get(name).(*expvar.Map); ok {
		return &Registry{m}
	}
	return &Registry{expvar.NewMap(name)}
}

// Int returns the counter or gauge published as name.
func (r *Registry) Int(name string) *expvar.Int {
	return lookup(r, name, func() *expvar.Int { return new(expvar.Int) })
}

// Histogram returns the latency histogram published as name.
func (r *Registry) Histogram(name string) *Histogram { return lookup(r, name, NewHistogram) }

// HistogramVec returns the per-family histograms published as name.
func (r *Registry) HistogramVec(name string) *HistogramVec { return lookup(r, name, NewHistogramVec) }

// GaugeVec returns the per-family gauges published as name.
func (r *Registry) GaugeVec(name string) *GaugeVec { return lookup(r, name, NewGaugeVec) }

// lookup returns r's var called name, setting it from mk if absent. Asking
// for an existing name as another type is a programming error and panics.
func lookup[T expvar.Var](r *Registry, name string, mk func() T) T {
	registryMu.Lock()
	defer registryMu.Unlock()
	if v := r.m.Get(name); v != nil {
		return v.(T)
	}
	v := mk()
	r.m.Set(name, v)
	return v
}
