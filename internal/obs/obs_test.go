package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if got := TraceID(ctx); got != "" {
		t.Fatalf("TraceID on empty ctx = %q, want empty", got)
	}
	id := NewTraceID()
	if len(id) != 16 {
		t.Fatalf("NewTraceID() = %q, want 16 hex chars", id)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Fatalf("two trace IDs collided: %q", id)
	}
	ctx = WithTrace(ctx, id)
	if got := TraceID(ctx); got != id {
		t.Fatalf("TraceID = %q, want %q", got, id)
	}
	if got := WithTrace(ctx, ""); got != ctx {
		t.Fatal("WithTrace with empty id should return ctx unchanged")
	}
}

func TestRecorderAndSpans(t *testing.T) {
	r := NewRecorder("abc123")
	ctx := WithRecorder(WithTrace(context.Background(), "abc123"), r)

	done := StartSpan(ctx, "sample")
	time.Sleep(time.Millisecond)
	done()
	StartSpan(ctx, "optimize")() // zero-duration span still records
	r.Add([]Span{{Trace: "other", Name: "optimize", Worker: "w1", DurMs: 5}})

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Trace != "abc123" {
			t.Errorf("span %q trace = %q, want abc123 (Add must restamp)", s.Name, s.Trace)
		}
	}
	if spans[0].Name != "sample" || spans[0].DurMs <= 0 {
		t.Errorf("first span = %+v, want sample with positive duration", spans[0])
	}
	if spans[2].Worker != "w1" {
		t.Errorf("merged span worker = %q, want w1", spans[2].Worker)
	}

	stages := AggregateStages(spans)
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(stages), stages)
	}
	if stages[0].Name != "sample" || stages[0].Count != 1 {
		t.Errorf("stage 0 = %+v, want sample count 1", stages[0])
	}
	if stages[1].Name != "optimize" || stages[1].Count != 2 || stages[1].Ms < 5 {
		t.Errorf("stage 1 = %+v, want optimize count 2 with ms >= 5", stages[1])
	}
}

func TestStartSpanNoRecorderIsNoop(t *testing.T) {
	done := StartSpan(context.Background(), "x")
	done() // must not panic
	var nilRec *Recorder
	nilRec.Record("x", time.Now(), time.Second) // nil receiver safe
	nilRec.Add([]Span{{Name: "y"}})
	if nilRec.Spans() != nil || nilRec.Dropped() != 0 {
		t.Fatal("nil recorder must report nothing")
	}
}

func TestRecorderCapAndConcurrency(t *testing.T) {
	r := NewRecorder("t")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record("s", time.Now(), time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := len(r.Spans()); got != maxRecordedSpans {
		t.Fatalf("recorded %d spans, want cap %d", got, maxRecordedSpans)
	}
	if got, want := r.Dropped(), 8*200-maxRecordedSpans; got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
}

func TestLoggerCarriesTrace(t *testing.T) {
	var buf bytes.Buffer
	base := slog.New(slog.NewJSONHandler(&buf, nil))
	ctx := WithLogger(WithTrace(context.Background(), "deadbeef"), base)
	Logger(ctx).Info("hello")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if line["trace"] != "deadbeef" {
		t.Fatalf("log line missing trace attr: %s", buf.String())
	}
	// Discard logger must swallow output silently.
	Discard().Info("never seen")
}

func TestMetricsHandlerPrometheus(t *testing.T) {
	m := expvar.NewMap("blinkml_obstest")
	m.Add("requests_total", 7)
	f := new(expvar.Float)
	f.Set(1.25)
	m.Set("load_factor", f)
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(2.0)
	}
	m.Set("latency_ms", h)

	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"blinkml_obstest_requests_total 7\n",
		"blinkml_obstest_load_factor 1.25\n",
		"# TYPE blinkml_obstest_latency_ms histogram\n",
		`blinkml_obstest_latency_ms_bucket{le="+Inf"} 10`,
		"blinkml_obstest_latency_ms_sum 20\n",
		"blinkml_obstest_latency_ms_count 10\n",
		"blinkml_obstest_latency_ms_p50 ",
		"blinkml_obstest_latency_ms_p99 ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals _count and every
	// le bound's count is non-decreasing.
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "blinkml_obstest_latency_ms_bucket") {
			continue
		}
		var n int64
		if _, err := fmtSscanLast(line, &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}

// fmtSscanLast parses the final whitespace-separated field of line into n.
func fmtSscanLast(line string, n *int64) (int, error) {
	fields := strings.Fields(line)
	return 1, json.Unmarshal([]byte(fields[len(fields)-1]), n)
}
