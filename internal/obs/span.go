package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed region of a traced request: a pipeline stage (ingest,
// sample, statistics, probe, optimize, registry) or a finer-grained unit.
// Worker is set when the span was recorded on a remote worker, so a
// coordinator can tell local from shipped work after merging.
type Span struct {
	Trace  string    `json:"trace_id"`
	Name   string    `json:"name"`
	Worker string    `json:"worker,omitempty"`
	Start  time.Time `json:"start"`
	DurMs  float64   `json:"dur_ms"`
}

// maxRecordedSpans bounds a Recorder's memory: one runaway job (e.g. a tune
// search with thousands of trials) must not grow the job table without
// bound. Overflow is counted, not silently dropped.
const maxRecordedSpans = 1024

// Recorder collects the spans of one trace. It travels in the job's Scope
// (Begin / StartSpan) and is safe for concurrent use — tune trials and
// probe fan-out record from many goroutines.
type Recorder struct {
	trace string

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewRecorder returns a Recorder for the given trace ID.
func NewRecorder(trace string) *Recorder {
	return &Recorder{trace: trace}
}

// Record appends one finished span, stamping the recorder's trace ID.
func (r *Recorder) Record(name string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	s := Span{Trace: r.trace, Name: name, Start: start, DurMs: float64(dur) / float64(time.Millisecond)}
	r.mu.Lock()
	if len(r.spans) >= maxRecordedSpans {
		r.dropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Add merges externally recorded spans (e.g. shipped back from a worker in a
// cluster task result) into the recorder, restamping them with this trace.
func (r *Recorder) Add(spans []Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	for i, s := range spans {
		if len(r.spans) >= maxRecordedSpans {
			r.dropped += len(spans) - i
			break
		}
		s.Trace = r.trace
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Dropped reports how many spans were discarded because the recorder was
// full.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// StartSpan begins a named span on the context's recorder and returns the
// closure that ends it. With no recorder in ctx it is a no-op, so
// instrumented code needs no conditionals:
//
//	done := obs.StartSpan(ctx, "statistics")
//	... work ...
//	done()
func StartSpan(ctx context.Context, name string) func() {
	s := ScopeFrom(ctx)
	r := s.Recorder // the closure keeps only what it needs, not the scope
	if r == nil {
		return func() {}
	}
	// The scope's ledger (if any) attributes resource charges to the stage
	// that is currently executing; the span boundary is that stage marker.
	restoreStage := s.Ledger.SetStage(name)
	start := time.Now()
	return func() {
		restoreStage()
		r.Record(name, start, time.Since(start))
	}
}

// Stage is the aggregate of all spans sharing a name: the per-stage
// breakdown GET /v1/jobs/{id} reports.
type Stage struct {
	Name  string  `json:"stage"`
	Ms    float64 `json:"ms"`
	Count int     `json:"count"`
}

// AggregateStages folds spans into per-name totals, ordered by each name's
// first appearance (which tracks pipeline order for a single job).
func AggregateStages(spans []Span) []Stage {
	idx := make(map[string]int, 8)
	var out []Stage
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, Stage{Name: s.Name})
		}
		out[i].Ms += s.DurMs
		out[i].Count++
	}
	return out
}
