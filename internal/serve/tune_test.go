package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
	"blinkml/internal/tune"
)

// TestTuneEndToEnd is the acceptance scenario for the serving layer: POST
// /v1/tune with a successive-halving random search over logistic-regression
// candidates on an inline higgs workload, poll the job to completion, check
// the leaderboard, and predict with the registered winning model.
func TestTuneEndToEnd(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	inline, probe := inlineHiggs(t, 3000)
	tuneReq := TuneRequest{
		Space: SpaceJSON{
			Random: &tune.RandomSpace{Model: "logistic", N: 20, RegMin: 1e-6, RegMax: 1},
		},
		Dataset: DatasetRef{Inline: inline},
		Epsilon: 0.1,
		Delta:   0.05,
		Options: TuneOptions{
			Seed:              11,
			Workers:           2,
			Halving:           true,
			Rungs:             2,
			Eta:               2,
			InitialSampleSize: 300,
		},
	}
	var tr TrainResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/tune", tuneReq, &tr); code != http.StatusAccepted {
		t.Fatalf("tune status %d", code)
	}
	if tr.JobID == "" || tr.State != JobQueued {
		t.Fatalf("tune response %+v", tr)
	}

	st := waitJob(t, client, ts.URL, tr.JobID, 120*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("job %+v, want succeeded", st)
	}
	if st.Kind != "tune" {
		t.Fatalf("job kind %q, want tune", st.Kind)
	}
	if st.ModelID == "" {
		t.Fatal("winning model not registered")
	}
	if st.Diagnostics == nil || st.Diagnostics.TotalMs <= 0 {
		t.Fatalf("missing winner diagnostics: %+v", st.Diagnostics)
	}
	// A tune job's stage breakdown attributes data preparation like a train
	// job's does (the environment build used to run outside any span).
	if st.Trace == nil {
		t.Fatal("missing trace report")
	}
	stages := make(map[string]bool)
	for _, stage := range st.Trace.Stages {
		stages[stage.Name] = true
	}
	for _, want := range []string{"ingest", "sample", "optimize", "registry"} {
		if !stages[want] {
			t.Fatalf("tune stage breakdown missing %q (got %+v)", want, st.Trace.Stages)
		}
	}
	rep := st.Tune
	if rep == nil {
		t.Fatal("missing tune report")
	}
	if rep.Evaluated != 20 || len(rep.Leaderboard) != 20 {
		t.Fatalf("report evaluated=%d rows=%d, want 20", rep.Evaluated, len(rep.Leaderboard))
	}
	if rep.Pruned == 0 {
		t.Fatal("halving pruned nothing")
	}
	lead := rep.Leaderboard[0]
	if lead.Rank != 1 || lead.Spec.Name() != "logistic" || lead.Pruned || math.IsNaN(lead.TestError) {
		t.Fatalf("leaderboard head %+v", lead)
	}
	if lead.EstimatedEpsilon <= 0 || lead.EstimatedEpsilon > 0.1 {
		t.Fatalf("winner epsilon %v outside (0, 0.1]", lead.EstimatedEpsilon)
	}

	// The registered winner serves predictions.
	var info ModelInfo
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/models/"+st.ModelID, nil, &info); code != http.StatusOK {
		t.Fatalf("model get status %d", code)
	}
	if info.Spec.Name != "logistic" || info.Spec.Reg != lead.Spec.(models.LogisticRegression).Reg {
		t.Fatalf("registered model %+v does not match leaderboard winner %+v", info.Spec, lead.Spec)
	}
	var pr PredictResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/models/"+st.ModelID+"/predict", PredictRequest{Rows: probe}, &pr); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	if len(pr.Predictions) != len(probe) {
		t.Fatalf("%d predictions for %d rows", len(pr.Predictions), len(probe))
	}
	for i, p := range pr.Predictions {
		if p != 0 && p != 1 {
			t.Fatalf("prediction %d = %v, want a class in {0,1}", i, p)
		}
	}
}

// TestTuneCancellation cancels a running tune job over HTTP and checks it
// reaches the cancelled state without registering a model.
func TestTuneCancellation(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// A big flat sweep that cannot finish instantly.
	tuneReq := TuneRequest{
		Space: SpaceJSON{
			Random: &tune.RandomSpace{Model: "logistic", N: 64},
		},
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 60000, Seed: 5}},
		Epsilon: 0.02,
		Options: TuneOptions{Seed: 5, Workers: 1},
	}
	var tr TrainResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/tune", tuneReq, &tr); code != http.StatusAccepted {
		t.Fatalf("tune status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+tr.JobID, nil, &st)
		if st.State == JobRunning {
			break
		}
		if st.Done() {
			t.Fatalf("job finished before cancel: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/"+tr.JobID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	final := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("job %+v, want cancelled", final)
	}
	if final.ModelID != "" || s.Registry().Len() != 0 {
		t.Fatalf("cancelled tune left a model: %+v (registry %d)", final, s.Registry().Len())
	}
}

// TestTuneRequestValidation exercises the admission-time error paths of
// POST /v1/tune.
func TestTuneRequestValidation(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	higgsRef := DatasetRef{Synthetic: &datagen.Ref{Name: "higgs"}}
	cases := []struct {
		name string
		req  TuneRequest
	}{
		{"empty space", TuneRequest{Epsilon: 0.1, Dataset: higgsRef}},
		{"unknown family", TuneRequest{Epsilon: 0.1, Dataset: higgsRef,
			Space: SpaceJSON{Random: &tune.RandomSpace{Model: "svm"}}}},
		{"bad grid spec", TuneRequest{Epsilon: 0.1, Dataset: higgsRef,
			Space: SpaceJSON{Grid: []modelio.SpecJSON{{Name: "svm"}}}}},
		{"bad epsilon", TuneRequest{Epsilon: 2, Dataset: higgsRef,
			Space: SpaceJSON{Random: &tune.RandomSpace{Model: "logistic"}}}},
		{"bad test fraction", TuneRequest{Epsilon: 0.1, Dataset: higgsRef,
			Space:   SpaceJSON{Random: &tune.RandomSpace{Model: "logistic"}},
			Options: TuneOptions{TestFraction: 1.5}}},
		{"missing dataset", TuneRequest{Epsilon: 0.1,
			Space: SpaceJSON{Random: &tune.RandomSpace{Model: "logistic"}}}},
		{"unknown generator", TuneRequest{Epsilon: 0.1, Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "nope"}},
			Space: SpaceJSON{Random: &tune.RandomSpace{Model: "logistic"}}}},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/tune", tc.req, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		} else if er.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
}

// TestLocalTuneSharesTheCachedEnv: a local search reaches its data through
// the server's env/plan cache like every other job, so a second identical
// search by dataset_id re-reads neither the holdout and test rows nor the
// halving rungs' shared prefix (it used to build a private environment and
// read exactly what the first did), the environment is counted in
// blinkml_plan_cache_bytes, and deleting the dataset drops it.
func TestLocalTuneSharesTheCachedEnv(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	info, code := uploadMultipart(t, client, ts.URL, map[string]string{"format": "csv", "task": "binary"}, higgsCSV(t, 3000))
	if code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	req := TuneRequest{
		Space:   SpaceJSON{Random: &tune.RandomSpace{Model: "logistic", N: 6}},
		Dataset: DatasetRef{ID: info.ID},
		Epsilon: 0.1,
		Options: TuneOptions{Seed: 11, Workers: 2, Halving: true, Rungs: 2, InitialSampleSize: 300},
	}
	first := runJob(t, ts, "/v1/tune", req)
	if first.State != JobSucceeded || first.Resources == nil || first.Resources.RowsMaterialized == 0 {
		t.Fatalf("first search: %s (%s), resources %+v", first.State, first.Error, first.Resources)
	}
	resident := s.m.PlanCache.Bytes.Value()
	if resident <= 0 {
		t.Fatalf("plan cache holds %d bytes after a search: its environment is not in the cache", resident)
	}
	second := runJob(t, ts, "/v1/tune", req)
	if second.State != JobSucceeded {
		t.Fatalf("second search: %s (%s)", second.State, second.Error)
	}
	if a, b := first.Resources.RowsMaterialized, second.Resources.RowsMaterialized; b >= a {
		t.Fatalf("the second search materialized %d rows, the first %d: it prepared the data again", b, a)
	}
	for i, want := range first.Tune.Leaderboard {
		got := second.Tune.Leaderboard[i]
		if got.Spec != want.Spec || !sameScore(got.TestError, want.TestError) || got.SampleSize != want.SampleSize {
			t.Fatalf("leaderboard row %d differs on the shared environment: %+v vs %+v", i, got, want)
		}
	}

	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/datasets/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}
	if after := s.m.PlanCache.Bytes.Value(); after >= resident {
		t.Fatalf("plan cache holds %d bytes after the delete, %d before: the search's environment was not dropped", after, resident)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/tune", req, nil); code != http.StatusNotFound {
		t.Fatalf("tune on the deleted dataset: status %d, want 404", code)
	}
}
