// Package obs is the process-wide observability layer: request tracing,
// latency histograms, metric exposition, and structured logging, shared by
// the serving layer, the cluster coordinator/worker, and the training hot
// path.
//
// The pieces fit together like this:
//
//   - A trace ID is minted when a request is admitted (or taken from the
//     request's X-Blinkml-Trace header) and carried via context.Context
//     through the job queue, tune trials, compute-pool work, and — in
//     cluster mode — over the coordinator/worker HTTP protocol, so every
//     log line and span of one request shares one identity.
//   - Spans cover the paper's pipeline stages (ingest, sample, optimize,
//     statistics, probe, registry). A Recorder collects them per job; the
//     serving layer aggregates them into the per-stage breakdown surfaced
//     by GET /v1/jobs/{id} and can export them as JSONL.
//   - Histogram is a fixed-bucket log-scale latency histogram: lock-cheap
//     to record, expvar-publishable, with p50/p95/p99 computed at read
//     time. It replaces sum-only *_ms_sum counters.
//   - MetricsHandler renders every blinkml* expvar map — counters, gauges,
//     and histograms — in Prometheus text format for GET /metrics, and
//     DebugHandler adds net/http/pprof behind an opt-in -debug-addr.
//   - HTTPMetrics (SharedHTTP) is the per-endpoint serving telemetry plane:
//     every serve and cluster route is wrapped in middleware recording
//     request counters by status class, per-route latency histograms,
//     inflight gauges, sliding-window SLO attainment (SLOWindow), and
//     opt-in slow-request warnings — the blinkml_http_* series.
//   - RegisterRuntimeMetrics exports curated Go runtime/metrics samples
//     (heap bytes, GC pauses, goroutines, scheduler latency) as the
//     blinkml_go_* series on both blinkml-serve and blinkml-worker.
//
// obs depends on nothing else in this module, so every layer may import it.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header that carries a trace ID between processes:
// clients may supply one on POST /v1/train and /v1/tune, and the cluster
// protocol propagates it between coordinator and worker so a worker's spans
// and log lines rejoin the originating request.
const TraceHeader = "X-Blinkml-Trace"

// traceFallback distinguishes trace IDs minted when crypto/rand fails.
var traceFallback atomic.Uint64

// NewTraceID mints a 16-hex-character trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%06x%09x", traceFallback.Add(1)&0xFFFFFF, time.Now().UnixNano()&0xFFFFFFFFF)
	}
	return hex.EncodeToString(b[:])
}

type ctxKey int

const (
	traceKey ctxKey = iota
	recorderKey
	loggerKey
	jobKey
	ledgerKey
)

// WithTrace returns ctx carrying the trace ID ("" leaves ctx unchanged).
func WithTrace(ctx context.Context, trace string) context.Context {
	if trace == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey, trace)
}

// TraceID returns the context's trace ID, or "" when there is none.
func TraceID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(traceKey).(string)
	return s
}

// WithJobID returns ctx carrying the serving-layer job ID ("" leaves ctx
// unchanged). The audit plane reads it so a durable calibration record can
// be joined back to the job that produced it.
func WithJobID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, jobKey, id)
}

// JobID returns the context's job ID, or "" when there is none.
func JobID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(jobKey).(string)
	return s
}
