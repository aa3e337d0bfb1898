package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"blinkml/internal/modelio"
	"blinkml/internal/obs"
)

// TestSharedGaugesResyncOnNewCoordinator guards against gauge drift: the
// expvar vars under "blinkml_cluster" are process singletons, so a
// coordinator constructed after another one died must reset the gauges to
// its own (empty) state instead of inheriting the predecessor's workers and
// queue depth.
func TestSharedGaugesResyncOnNewCoordinator(t *testing.T) {
	m := sharedMetrics()

	c1 := NewCoordinator(testConfig(), nil)
	if _, err := c1.Register(RegisterRequest{Name: "drift", Capacity: 1, Parallelism: 1}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := c1.Submit(TaskSpec{Kind: KindTrain, Train: &TrainTask{
		Spec:    modelio.SpecJSON{Name: "logistic"},
		Dataset: syntheticRef(),
		Options: testTrainOptions(),
	}}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if m.Workers.Value() != 1 {
		t.Fatalf("workers gauge %d after register, want 1", m.Workers.Value())
	}
	if m.TasksPending.Value() != 1 {
		t.Fatalf("pending gauge %d after submit, want 1", m.TasksPending.Value())
	}
	// Close without draining: the dead coordinator leaves the gauges at
	// whatever it last set (Close clears pending but the worker gauge keeps
	// its final value).
	c1.Close()

	c2 := NewCoordinator(testConfig(), nil)
	defer c2.Close()
	if m.Workers.Value() != 0 {
		t.Fatalf("workers gauge %d on fresh coordinator, want 0", m.Workers.Value())
	}
	if m.TasksPending.Value() != 0 || m.TasksLeased.Value() != 0 {
		t.Fatalf("task gauges pending=%d leased=%d on fresh coordinator, want 0/0",
			m.TasksPending.Value(), m.TasksLeased.Value())
	}
}

// TestTaskTraceReachesWorkerSpans checks the wire-level half of trace
// propagation: a trace id attached to a submitted task must come back on
// the worker-recorded spans in the completion payload, each stamped with
// the worker's name.
func TestTaskTraceReachesWorkerSpans(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)
	tc.startWorker(t, "w-obs")

	const trace = "feedc0de12345678"
	id, err := tc.coord.Submit(TaskSpec{Kind: KindTrain, Trace: trace, Train: &TrainTask{
		Spec:    modelio.SpecJSON{Name: "logistic"},
		Dataset: syntheticRef(),
		Options: testTrainOptions(),
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload, err := tc.coord.Await(ctx, id)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if len(payload.Spans) == 0 {
		t.Fatal("completion payload carries no spans")
	}
	names := make(map[string]bool)
	for _, sp := range payload.Spans {
		if sp.Trace != trace {
			t.Fatalf("span %q has trace %q, want %q", sp.Name, sp.Trace, trace)
		}
		if sp.Worker != "w-obs" {
			t.Fatalf("span %q has worker %q, want w-obs", sp.Name, sp.Worker)
		}
		if sp.DurMs < 0 {
			t.Fatalf("span %q has negative duration %v", sp.Name, sp.DurMs)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"ingest", "sample", "optimize", "statistics", "probe"} {
		if !names[want] {
			t.Fatalf("worker spans missing stage %q (got %v)", want, names)
		}
	}
}

// TestTaskRecordIsOne: a worker's completion payload and its flight-ring
// entry read one finished record — the same ledger snapshot and the same
// spans, stamped with the worker's name.
func TestTaskRecordIsOne(t *testing.T) {
	tc := newTestCluster(t, testConfig(), nil)
	fr, err := obs.NewFlightRecorder(obs.FlightConfig{Dir: t.TempDir(), CPUProfile: -1})
	if err != nil {
		t.Fatal(err)
	}
	tc.startWorkerWith(t, WorkerConfig{Name: "w-rec", Flight: fr})
	id, err := tc.coord.Submit(TaskSpec{Kind: KindTrain, Trace: "0123456789abcdef", Train: &TrainTask{
		Spec:    modelio.SpecJSON{Name: "logistic"},
		Dataset: syntheticRef(),
		Options: testTrainOptions(),
	}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload, err := tc.coord.Await(ctx, id)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	// The worker records its ring entry before it sends the completion.
	var entry *obs.FlightEntry
	for _, e := range fr.Entries() {
		if e.JobID == id {
			entry = &e
		}
	}
	if entry == nil || entry.Kind != "task:train" || entry.Trace != "0123456789abcdef" || entry.Err != "" {
		t.Fatalf("flight entry for %s: %+v", id, entry)
	}
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if payload.Ledger == nil || payload.Ledger.KernelCalls == 0 || asJSON(entry.Ledger) != asJSON(payload.Ledger) {
		t.Fatalf("ledgers differ:\n  flight  %s\n  payload %s", asJSON(entry.Ledger), asJSON(payload.Ledger))
	}
	if len(payload.Spans) == 0 || asJSON(entry.Spans) != asJSON(payload.Spans) {
		t.Fatalf("spans differ:\n  flight  %s\n  payload %s", asJSON(entry.Spans), asJSON(payload.Spans))
	}
}

// TestMountRoutesThroughHTTPMiddleware checks that the coordinator's
// protocol endpoints are wrapped by the shared obs HTTP middleware under
// their parameterized route labels, so the cluster control plane shows up
// in the blinkml_http_* series alongside the public API.
func TestMountRoutesThroughHTTPMiddleware(t *testing.T) {
	tc := newTestCluster(t, Config{}, nil)
	route := obs.SharedHTTP().Route("/v1/cluster/status")
	before := route.Requests()
	resp, err := http.Get(tc.server.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status code %d", resp.StatusCode)
	}
	if got := route.Requests(); got != before+1 {
		t.Fatalf("route counter %d, want %d — Mount must wrap handlers in obs middleware", got, before+1)
	}
}
