// Package obs is the process-wide observability layer: request tracing,
// latency histograms, metric exposition, and structured logging, shared by
// the serving layer, the cluster coordinator/worker, and the training hot
// path.
//
// The pieces fit together like this:
//
//   - One Scope per unit of work (a serving job, a worker task, a CLI run)
//     carries its trace ID, job ID, logger, span Recorder and resource
//     Ledger as one context value through the job queue, tune trials and,
//     in cluster mode, the coordinator/worker protocol, so every log line,
//     span and charge of one request shares one identity. Its ledger is
//     also bound to the goroutines doing the work (Scope.Bind).
//   - Spans cover the paper's pipeline stages (ingest, sample, optimize,
//     statistics, probe, registry). Scope.Finish seals spans and ledger into
//     the one record (a FlightEntry) that the job status and its per-stage
//     breakdown, the -span-log export, the flight ring and a worker's
//     completion all read.
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
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
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

// Scope is how one unit of work — a serving job, a worker task, a CLI run —
// is observed: trace and job ids, logger, span Recorder and cost Ledger,
// carried in a context as one value (one lookup for every reader). It owns
// the work's goroutine bind (Bind), its one finished record (Finish) and the
// rejoin of a record shipped back by a remote worker (Merge).
type Scope struct {
	Trace    string
	JobID    string
	Recorder *Recorder
	Ledger   *Ledger

	log   *slog.Logger
	start time.Time
}

type scopeKey struct{}

// ScopeFrom returns the context's scope, or the zero Scope (whose methods
// do nothing).
func ScopeFrom(ctx context.Context) Scope {
	if ctx == nil {
		return Scope{}
	}
	s, _ := ctx.Value(scopeKey{}).(Scope)
	return s
}

// with returns ctx carrying a copy of its scope changed by set, or ctx
// itself when !ok: the one place a scope enters a context.
func with(ctx context.Context, ok bool, set func(Scope) Scope) context.Context {
	if !ok {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, set(ScopeFrom(ctx)))
}

// Begin opens the scope of one unit of work: a fresh Recorder and Ledger,
// the clock Finish reads, and trace, job id and logger set as the With*
// setters set them ("" and nil keep ctx's).
func Begin(ctx context.Context, trace, jobID string, logger *slog.Logger) (context.Context, Scope) {
	ctx = with(ctx, true, func(s Scope) Scope {
		s.Trace, s.JobID, s.log = cmp.Or(trace, s.Trace), cmp.Or(jobID, s.JobID), cmp.Or(logger, s.log)
		s.Recorder, s.Ledger, s.start = NewRecorder(s.Trace), NewLedger(), time.Now()
		return s
	})
	return ctx, ScopeFrom(ctx)
}

// Bind binds the scope's ledger to the calling goroutine until release
// runs, so the context-free compute pool and row store charge it.
// A goroutine the work starts with plain `go` binds itself.
func (s Scope) Bind() (release func()) { return BindLedger(s.Ledger) }

// Finish seals the scope into its one finished record: the spans, copied
// once, and a ledger snapshot, tagged with the kind of work and its error
// ("" on success). Job status, the span log, the flight ring and a worker's
// completion all read this record.
func (s Scope) Finish(kind, errMsg string) *FlightEntry {
	now := time.Now()
	return &FlightEntry{Trace: s.Trace, JobID: s.JobID, Kind: kind, Err: errMsg,
		DurMs: float64(now.Sub(s.start)) / float64(time.Millisecond), FinishedAt: now,
		Spans: s.Recorder.Spans(), Ledger: s.Ledger.Snapshot()}
}

// Merge rejoins the spans and ledger snapshot of remote work to the scope.
func (s Scope) Merge(spans []Span, l *LedgerSnapshot) {
	s.Recorder.Add(spans)
	s.Ledger.Merge(l)
}

// WithTrace returns ctx carrying the trace ID ("" leaves ctx unchanged).
func WithTrace(ctx context.Context, trace string) context.Context {
	return with(ctx, trace != "", func(s Scope) Scope { s.Trace = trace; return s })
}

// WithRecorder returns ctx carrying the recorder (nil leaves ctx unchanged).
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return with(ctx, r != nil, func(s Scope) Scope { s.Recorder = r; return s })
}

// WithLedger returns ctx carrying the ledger (nil leaves ctx unchanged).
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	return with(ctx, l != nil, func(s Scope) Scope { s.Ledger = l; return s })
}

// TraceID returns the context's trace ID, or "" when there is none.
func TraceID(ctx context.Context) string { return ScopeFrom(ctx).Trace }

// LedgerFrom returns the context's ledger, or nil.
func LedgerFrom(ctx context.Context) *Ledger { return ScopeFrom(ctx).Ledger }

// Logger returns the scope's logger (or slog.Default) with the scope's
// trace ID as a "trace" attr, so every line of one request is greppable.
func Logger(ctx context.Context) *slog.Logger {
	s := ScopeFrom(ctx)
	l := cmp.Or(s.log, slog.Default())
	if s.Trace != "" {
		l = l.With("trace", s.Trace)
	}
	return l
}

// Discard returns a logger that drops everything — the test default, so
// suites stay quiet without ad-hoc nil checks at call sites.
func Discard() *slog.Logger { return slog.New(slog.DiscardHandler) }
