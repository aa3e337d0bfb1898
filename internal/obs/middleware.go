package obs

import (
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HTTP middleware: every serve route and every cluster coordinator/worker
// endpoint is wrapped by HTTPMetrics.Wrap, which feeds three per-route
// telemetry planes —
//
//   - request counters by status class (blinkml_http_requests_total),
//   - a latency histogram per route (blinkml_http_request_ms) plus inflight
//     gauges (blinkml_http_inflight / blinkml_http_route_inflight),
//   - a sliding-window SLO tracker (blinkml_http_slo_availability and
//     blinkml_http_slo_latency_attainment)
//
// — and optionally logs a slog warning (route, method, status, trace ID)
// when a request exceeds the slow-request threshold. The route label set is
// bounded by construction: labels come only from Wrap call sites (the
// registered mux patterns), never from request paths, so no client input
// can mint a new series.

// statusClasses are the label values for the response status classes;
// index is status/100, with 0 reserved for hijacked/unclassifiable
// responses.
var statusClasses = [6]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// RouteMetrics is one route's telemetry: class counters, latency histogram,
// inflight gauge, and SLO window.
type RouteMetrics struct {
	classes  [6]atomic.Uint64
	latency  *Histogram
	inflight atomic.Int64
	slo      *SLOWindow
}

// Latency exposes the route's latency histogram (tests and the SLO report).
func (r *RouteMetrics) Latency() *Histogram { return r.latency }

// Inflight reports the route's currently executing request count.
func (r *RouteMetrics) Inflight() int64 { return r.inflight.Load() }

// SLO exposes the route's sliding SLO window.
func (r *RouteMetrics) SLO() *SLOWindow { return r.slo }

// Requests returns the total request count across status classes.
func (r *RouteMetrics) Requests() uint64 {
	var n uint64
	for i := range r.classes {
		n += r.classes[i].Load()
	}
	return n
}

// Class returns the request count for one status class (0-5 = 0xx..5xx).
func (r *RouteMetrics) Class(class int) uint64 {
	if class < 0 || class >= len(r.classes) {
		return 0
	}
	return r.classes[class].Load()
}

// atomicFloat is a float64 readable/writable without locks (threshold
// knobs touched on every request).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// HTTPMetrics is the per-endpoint HTTP telemetry plane. One instance is
// shared process-wide (SharedHTTP) and published as the "blinkml_http"
// expvar; tests may construct private instances with NewHTTPMetrics.
type HTTPMetrics struct {
	mu     sync.RWMutex
	routes map[string]*RouteMetrics

	inflight atomic.Int64 // across all routes

	slowMs atomicFloat // slow-request warning threshold; 0 disables
	sloMs  atomicFloat // latency-attainment threshold for the SLO window
	logger atomic.Pointer[slog.Logger]
	flight atomic.Pointer[FlightRecorder] // diagnostic dump target; nil = off
	now    func() time.Time               // test seam
}

// SLO-breach trigger thresholds for the flight recorder: the window must
// hold at least SLOBreachMinRequests before availability below
// SLOBreachAvailability or latency attainment below SLOBreachAttainment
// counts as a breach (otherwise a single failed request in an idle window
// would dump a bundle).
const (
	SLOBreachMinRequests  = 20
	SLOBreachAvailability = 0.99
	SLOBreachAttainment   = 0.90
)

// DefaultSLOLatencyMs is the latency threshold the SLO attainment gauge
// measures against unless configured otherwise: the repo's interactive
// serving target.
const DefaultSLOLatencyMs = 250.0

// NewHTTPMetrics returns an unpublished metrics plane (tests); services use
// SharedHTTP.
func NewHTTPMetrics() *HTTPMetrics {
	m := &HTTPMetrics{routes: make(map[string]*RouteMetrics), now: time.Now}
	m.sloMs.Store(DefaultSLOLatencyMs)
	return m
}

var (
	httpOnce   sync.Once
	httpShared *HTTPMetrics
)

// SharedHTTP returns the process-wide HTTP telemetry plane, publishing it
// as the "blinkml_http" expvar on first use (so repeated server
// construction in one process reuses the same series, like the other
// shared metric maps).
func SharedHTTP() *HTTPMetrics {
	httpOnce.Do(func() {
		httpShared = NewHTTPMetrics()
		expvar.Publish("blinkml_http", httpShared)
	})
	return httpShared
}

// SetSlowRequestThreshold arms the slow-request warning: any wrapped
// request slower than ms milliseconds logs through logger with its route,
// method, status, and trace ID. ms <= 0 disables (the default).
func (m *HTTPMetrics) SetSlowRequestThreshold(ms float64, logger *slog.Logger) {
	if ms < 0 {
		ms = 0
	}
	m.slowMs.Store(ms)
	if logger != nil {
		m.logger.Store(logger)
	}
}

// SetSLOLatencyThreshold sets the latency bound (ms) the sliding-window
// attainment gauge measures against.
func (m *HTTPMetrics) SetSLOLatencyThreshold(ms float64) {
	if ms > 0 {
		m.sloMs.Store(ms)
	}
}

// SetFlightRecorder arms diagnostic dumps: offending requests (errored,
// slow, or SLO-violating) are fed into the recorder's ring, a slow-request
// hit triggers a dump immediately, and an SLO-window breach (availability
// or latency attainment below the breach thresholds with enough requests in
// the window) triggers one too. The recorder rate-limits, so sustained
// breaches still produce one bundle per interval.
func (m *HTTPMetrics) SetFlightRecorder(f *FlightRecorder) {
	m.flight.Store(f)
}

// Inflight reports the number of wrapped requests currently executing.
func (m *HTTPMetrics) Inflight() int64 { return m.inflight.Load() }

// Route returns (creating if needed) the telemetry for one route label.
func (m *HTTPMetrics) Route(route string) *RouteMetrics {
	m.mu.RLock()
	rm := m.routes[route]
	m.mu.RUnlock()
	if rm != nil {
		return rm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm = m.routes[route]; rm == nil {
		rm = &RouteMetrics{latency: NewHistogram(), slo: NewSLOWindow(0)}
		m.routes[route] = rm
	}
	return rm
}

// Wrap instruments h under the given route label. The label should be the
// registered mux pattern sans method (e.g. "/v1/models/{id}/predict") so
// the set stays bounded no matter what paths clients send.
func (m *HTTPMetrics) Wrap(route string, h http.Handler) http.Handler {
	rm := m.Route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		rm.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := m.now()
		defer func() {
			ms := float64(m.now().Sub(start)) / float64(time.Millisecond)
			m.finish(route, rm, r, sw, ms)
		}()
		h.ServeHTTP(sw, r)
	})
}

// finish records one completed request into every telemetry plane.
func (m *HTTPMetrics) finish(route string, rm *RouteMetrics, r *http.Request, sw *statusWriter, ms float64) {
	m.inflight.Add(-1)
	rm.inflight.Add(-1)
	code := sw.status()
	class := code / 100
	if class < 0 || class >= len(statusClasses) {
		class = 0
	}
	rm.classes[class].Add(1)
	rm.latency.Observe(ms)
	now := m.now()
	sloMs := m.sloMs.Load()
	isErr := class == 5 || class == 0
	isSlow := sloMs > 0 && ms > sloMs
	rm.slo.Record(now, isErr, isSlow)
	slowHit := false
	if t := m.slowMs.Load(); t > 0 && ms >= t {
		slowHit = true
		if logger := m.logger.Load(); logger != nil {
			// The trace ID may arrive on the request (caller-supplied) or be
			// minted at admission and echoed on the response header.
			trace := r.Header.Get(TraceHeader)
			if trace == "" {
				trace = sw.Header().Get(TraceHeader)
			}
			logger.Warn("slow request",
				"route", route, "method", r.Method, "status", code,
				"ms", ms, "threshold_ms", t, "trace", trace)
		}
	}
	if fr := m.flight.Load(); fr != nil && (isErr || isSlow || slowHit) {
		trace := r.Header.Get(TraceHeader)
		if trace == "" {
			trace = sw.Header().Get(TraceHeader)
		}
		errStr := ""
		if isErr {
			errStr = fmt.Sprintf("status %d", code)
		}
		fr.Record(FlightEntry{
			Trace:      trace,
			Kind:       "http:" + route,
			Err:        errStr,
			DurMs:      ms,
			FinishedAt: now,
		})
		switch {
		case slowHit:
			fr.Trigger("slow-request", fmt.Sprintf("route=%s ms=%.1f trace=%s", route, ms, trace))
		default:
			// Only offending requests re-evaluate the window: a breach is by
			// definition preceded by one, and the happy path stays lock-free.
			if total, errors, slow := rm.slo.Snapshot(now); total >= SLOBreachMinRequests {
				avail := float64(total-errors) / float64(total)
				attain := float64(total-slow) / float64(total)
				if avail < SLOBreachAvailability || attain < SLOBreachAttainment {
					fr.Trigger("slo-breach", fmt.Sprintf(
						"route=%s availability=%.4f attainment=%.4f window=%d", route, avail, attain, total))
				}
			}
		}
	}
}

// snapshotRoutes returns the route set in sorted label order.
func (m *HTTPMetrics) snapshotRoutes() (names []string, routes []*RouteMetrics) {
	m.mu.RLock()
	names = make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	routes = make([]*RouteMetrics, len(names))
	for i, name := range names {
		routes[i] = m.Route(name)
	}
	return names, routes
}

// WriteProm implements PromWriter: counters by (route, class), inflight
// gauges, per-route latency histograms, and the windowed SLO gauges.
func (m *HTTPMetrics) WriteProm(w io.Writer, name string) {
	names, routes := m.snapshotRoutes()
	now := m.now()

	typed := false
	for i, rm := range routes {
		for class, label := range statusClasses {
			n := rm.classes[class].Load()
			if n == 0 {
				continue
			}
			if !typed {
				fmt.Fprintf(w, "# TYPE %s_requests_total counter\n", name)
				typed = true
			}
			fmt.Fprintf(w, "%s_requests_total{route=%q,class=%q} %d\n", name, names[i], label, n)
		}
	}

	fmt.Fprintf(w, "%s_inflight %d\n", name, m.inflight.Load())
	for i, rm := range routes {
		fmt.Fprintf(w, "%s_route_inflight{route=%q} %d\n", name, names[i], rm.inflight.Load())
	}

	typed = false
	for i, rm := range routes {
		if rm.latency.Count() == 0 {
			continue
		}
		if !typed {
			fmt.Fprintf(w, "# TYPE %s_request_ms histogram\n", name)
			typed = true
		}
		writeLabeledHistogram(w, name+"_request_ms", fmt.Sprintf("route=%q", names[i]), rm.latency)
	}

	fmt.Fprintf(w, "%s_slo_latency_threshold_ms %s\n", name, promFloat(m.sloMs.Load()))
	fmt.Fprintf(w, "%s_slo_window_seconds %d\n", name, DefaultSLOWindowSeconds)
	for i, rm := range routes {
		total, errors, slow := rm.slo.Snapshot(now)
		if total == 0 {
			continue // an idle endpoint has no attainment to report
		}
		fmt.Fprintf(w, "%s_slo_window_requests{route=%q} %d\n", name, names[i], total)
		fmt.Fprintf(w, "%s_slo_availability{route=%q} %s\n", name, names[i],
			promFloat(float64(total-errors)/float64(total)))
		fmt.Fprintf(w, "%s_slo_latency_attainment{route=%q} %s\n", name, names[i],
			promFloat(float64(total-slow)/float64(total)))
	}
}

// String implements expvar.Var: a JSON object keyed by route with request
// totals, inflight, and tail quantiles (the full breakdown lives on
// /metrics).
func (m *HTTPMetrics) String() string {
	names, routes := m.snapshotRoutes()
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, rm := range routes {
		total := rm.Requests()
		if total == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:{\"requests\":%d,\"errors_5xx\":%d,\"inflight\":%d,\"p50_ms\":%s,\"p99_ms\":%s}",
			names[i], total, rm.classes[5].Load(), rm.inflight.Load(),
			jsonFloat(rm.latency.Quantile(0.50)), jsonFloat(rm.latency.Quantile(0.99)))
	}
	b.WriteByte('}')
	return b.String()
}

// statusWriter captures the response status code. Unwrap keeps
// http.ResponseController features (flush, deadlines) working through the
// wrapper, and Flush is forwarded directly for plain Flusher callers
// (dataset bundle streaming).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// status reports the effective status code (200 when the handler never
// wrote an explicit one — net/http's behavior).
func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}
