package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blinkml/internal/obs"
)

// TestJobLedgerDeterministic: the deterministic ledger fields — rows and
// bytes materialized, kernel calls, flops — of a store-backed train request
// at a fixed seed are a function of the request and of whether its plan was
// cached. Two fresh servers (miss vs miss) agree on every one of them, two
// repeats on one server (hit vs hit) agree, and a hit is strictly below a
// miss in all four: the rows were not re-read, m₀ not re-trained, the
// statistics not recomputed. The job status says which it was, and both
// kinds register their model under a "registry" stage. This is the
// attribution analogue of the model-bits determinism the repo already
// guarantees.
func TestJobLedgerDeterministic(t *testing.T) {
	type job struct {
		res  *obs.LedgerSnapshot
		plan string
	}
	// runs submits the same request n times to one fresh server.
	runs := func(n int) []job {
		s, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 8})
		if err != nil {
			t.Fatalf("new server: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			s.Close()
			ts.Close()
		}()
		req := TrainRequest{
			Model:   modelSpec("logistic"),
			Dataset: DatasetRef{ID: uploadDataset(t, s)},
			Epsilon: 0.1,
			Delta:   0.05,
			Options: TrainOptions{Seed: 9, InitialSampleSize: 400},
		}
		var out []job
		for run := 0; run < n; run++ {
			var ack TrainResponse
			if code := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/train", req, &ack); code != http.StatusAccepted {
				t.Fatalf("run %d submit status %d", run, code)
			}
			st := waitJob(t, ts.Client(), ts.URL, ack.JobID, 60*time.Second)
			if st.State != JobSucceeded {
				t.Fatalf("run %d: %s (%s)", run, st.State, st.Error)
			}
			if st.Resources == nil || st.Trace == nil {
				t.Fatalf("run %d: job status has no resources or no trace: %+v", run, st)
			}
			registry := false
			for _, stage := range st.Trace.Stages {
				registry = registry || stage.Name == "registry"
			}
			if !registry {
				t.Fatalf("run %d (plan %s): no registry stage in %+v", run, st.Plan, st.Trace.Stages)
			}
			out = append(out, job{st.Resources, st.Plan})
		}
		return out
	}
	first := runs(3)
	miss, hit, hit2, otherMiss := first[0], first[1], first[2], runs(1)[0]
	if miss.plan != "miss" || otherMiss.plan != "miss" || hit.plan != "hit" || hit2.plan != "hit" {
		t.Fatalf("plan outcomes %q %q %q / %q, want miss hit hit / miss", miss.plan, hit.plan, hit2.plan, otherMiss.plan)
	}

	a := miss.res
	if a.KernelCalls == 0 || a.Flops == 0 {
		t.Fatalf("no kernel charges recorded: %+v", a)
	}
	if a.RowsMaterialized == 0 || a.BytesMaterialized == 0 {
		t.Fatalf("store-backed train materialized nothing: %+v", a)
	}
	if a.CPUMs <= 0 {
		t.Fatalf("no pool busy time recorded: %+v", a)
	}
	same := func(x, y *obs.LedgerSnapshot) bool {
		return x.KernelCalls == y.KernelCalls && x.Flops == y.Flops &&
			x.RowsMaterialized == y.RowsMaterialized && x.BytesMaterialized == y.BytesMaterialized
	}
	if !same(a, otherMiss.res) {
		t.Fatalf("deterministic ledger fields differ between two fresh servers:\n  %+v\n  %+v", a, otherMiss.res)
	}
	if !same(hit.res, hit2.res) {
		t.Fatalf("deterministic ledger fields differ between two plan hits:\n  %+v\n  %+v", hit.res, hit2.res)
	}
	if h := hit.res; h.RowsMaterialized >= a.RowsMaterialized || h.BytesMaterialized >= a.BytesMaterialized ||
		h.KernelCalls >= a.KernelCalls || h.Flops >= a.Flops {
		t.Fatalf("a plan hit did not cost less than the miss:\n  miss %+v\n  hit  %+v", a, h)
	}
	// Stage attribution: training charges must land in named stages.
	if len(a.Stages) == 0 {
		t.Fatalf("no stage breakdown: %+v", a)
	}
	var stageKernels int64
	for _, sc := range a.Stages {
		stageKernels += sc.KernelCalls
	}
	if stageKernels == 0 {
		t.Fatalf("stages carry no kernel calls: %+v", a.Stages)
	}
}

// TestFlightRecorderHTTP: a server armed with -flight-dir and a ~zero slow-
// request threshold dumps exactly one rate-limited bundle under a burst of
// requests, and the /v1/debug/flightrecords endpoints list and serve it.
func TestFlightRecorderHTTP(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flight")
	s, err := New(Config{
		Dir:              t.TempDir(),
		Workers:          1,
		QueueDepth:       8,
		SlowRequestMs:    0.000001, // every request is "slow": deterministic trigger
		FlightDir:        dir,
		FlightCPUProfile: -1,
		Logger:           obs.Discard(),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Close()
		ts.Close()
	}()

	// A burst of breaching requests; the recorder's rate limit (default 30s)
	// must collapse them into one bundle.
	for i := 0; i < 10; i++ {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
	}

	// The dump runs async off the trigger; wait for it to land.
	deadline := time.Now().Add(10 * time.Second)
	var list FlightList
	for {
		if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/debug/flightrecords", nil, &list); code != http.StatusOK {
			t.Fatalf("list status %d", code)
		}
		if len(list.Bundles) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bundle appeared in %s", dir)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(list.Bundles) != 1 {
		t.Fatalf("bundles = %d, want exactly 1 (rate-limited)", len(list.Bundles))
	}
	if list.Dumps != 1 {
		t.Fatalf("dump counter = %d, want 1", list.Dumps)
	}
	name := list.Bundles[0].Name
	if !strings.HasPrefix(name, "fr-") || !strings.Contains(name, "slow-request") {
		t.Fatalf("bundle name %q", name)
	}

	// Fetch one bundle's listing and one file through the API.
	var info obs.BundleInfo
	if code := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/debug/flightrecords/"+name, nil, &info); code != http.StatusOK {
		t.Fatalf("bundle get status %d", code)
	}
	files := map[string]bool{}
	for _, bf := range info.Files {
		files[bf.Name] = true
	}
	for _, want := range []string{"meta.json", "flight.json", "goroutines.txt"} {
		if !files[want] {
			t.Fatalf("bundle files %v missing %s", files, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/debug/flightrecords/" + name + "/meta.json")
	if err != nil {
		t.Fatalf("file get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("file get status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	// Traversal through the HTTP surface is rejected, not served.
	resp2, err := ts.Client().Get(ts.URL + "/v1/debug/flightrecords/" + name + "/..%2f..%2fsecret")
	if err != nil {
		t.Fatalf("traversal get: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("path traversal through the bundle API succeeded")
	}

	// On-disk layout matches the advertised contract.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !ents[0].IsDir() || ents[0].Name() != name {
		t.Fatalf("flight dir contents: %v", ents)
	}
}

// TestFlightRecorderDisabled: without -flight-dir the debug endpoints
// respond 404 with a hint rather than an empty listing.
func TestFlightRecorderDisabled(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Close()
		ts.Close()
	}()
	resp, err := ts.Client().Get(ts.URL + "/v1/debug/flightrecords")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when disabled", resp.StatusCode)
	}
}

// TestFlightRecorderCloseLeavesOthersArmed: closing one server disarms only
// its own recorder on the process-wide HTTP plane, and a server whose New
// fails arms none, so a slow request to a second server still dumps a bundle
// into the second's directory and nowhere else.
func TestFlightRecorderCloseLeavesOthersArmed(t *testing.T) {
	config := func(dir string) Config {
		return Config{
			Dir:              t.TempDir(),
			Workers:          1,
			QueueDepth:       4,
			SlowRequestMs:    0.000001, // every request is "slow"
			FlightDir:        dir,
			FlightCPUProfile: -1,
			Logger:           obs.Discard(),
		}
	}
	a, err := New(config(filepath.Join(t.TempDir(), "flight-a")))
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	dirB := filepath.Join(t.TempDir(), "flight-b")
	b, err := New(config(dirB))
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer b.Close()
	a.Close()
	dirC := filepath.Join(t.TempDir(), "flight-c")
	cfgC := config(dirC)
	cfgC.SpanLog = filepath.Join(t.TempDir(), "missing", "spans.jsonl")
	if _, err := New(cfgC); err == nil {
		t.Fatal("New opened a span log in a missing directory")
	}

	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(10 * time.Second); b.flight.Dumps() == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no bundle in %s after closing one server and failing to start another", dirB)
		}
	}
	if ents, _ := os.ReadDir(dirC); len(ents) != 0 {
		t.Fatalf("the server whose New failed holds %d entries in its flight dir", len(ents))
	}
}

// TestJobRecordIsOne: a local train job's finished record is read, not
// rebuilt, by every sink — the status's trace spans and resources, the
// -span-log lines and the flight-ring entry are the same spans and the same
// ledger snapshot.
func TestJobRecordIsOne(t *testing.T) {
	spanLog := filepath.Join(t.TempDir(), "spans.jsonl")
	s, err := New(Config{
		Dir:              t.TempDir(),
		Workers:          1,
		QueueDepth:       4,
		SpanLog:          spanLog,
		FlightDir:        filepath.Join(t.TempDir(), "flight"),
		FlightCPUProfile: -1,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	st := runJob(t, ts, "/v1/train", trainBody())
	ts.Close()
	s.Close() // drains the queue, so the sinks have run, and flushes the span log
	if st.State != JobSucceeded || st.Trace == nil || len(st.Trace.Spans) == 0 || st.Resources == nil {
		t.Fatalf("job status: %+v", st)
	}

	raw, err := os.ReadFile(spanLog)
	if err != nil {
		t.Fatal(err)
	}
	var logged []obs.Span
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sp obs.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span log line %q: %v", line, err)
		}
		logged = append(logged, sp)
	}
	var entry *obs.FlightEntry
	for _, e := range s.flight.Entries() {
		if e.JobID == st.ID {
			entry = &e
		}
	}
	if entry == nil || entry.Kind != "job:train" || entry.Trace != st.TraceID || entry.Err != "" {
		t.Fatalf("flight entry for %s: %+v", st.ID, entry)
	}

	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	spans := asJSON(st.Trace.Spans)
	if asJSON(logged) != spans || asJSON(entry.Spans) != spans {
		t.Fatalf("spans differ:\n  status   %s\n  span log %s\n  flight   %s", spans, asJSON(logged), asJSON(entry.Spans))
	}
	if asJSON(entry.Ledger) != asJSON(st.Resources) {
		t.Fatalf("ledgers differ:\n  status %s\n  flight %s", asJSON(st.Resources), asJSON(entry.Ledger))
	}
}
