package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/modelio"
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
			Random: &RandomSpaceJSON{Model: "logistic", Candidates: 20, RegMin: 1e-6, RegMax: 1},
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
	if lead.Rank != 1 || lead.Spec.Name != "logistic" || lead.Pruned || lead.TestError == nil {
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
	if info.Spec.Name != "logistic" || info.Spec.Reg != lead.Spec.Reg {
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
			Random: &RandomSpaceJSON{Model: "logistic", Candidates: 64},
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
			Space: SpaceJSON{Random: &RandomSpaceJSON{Model: "svm"}}}},
		{"bad grid spec", TuneRequest{Epsilon: 0.1, Dataset: higgsRef,
			Space: SpaceJSON{Grid: []modelio.SpecJSON{{Name: "svm"}}}}},
		{"bad epsilon", TuneRequest{Epsilon: 2, Dataset: higgsRef,
			Space: SpaceJSON{Random: &RandomSpaceJSON{Model: "logistic"}}}},
		{"bad test fraction", TuneRequest{Epsilon: 0.1, Dataset: higgsRef,
			Space:   SpaceJSON{Random: &RandomSpaceJSON{Model: "logistic"}},
			Options: TuneOptions{TestFraction: 1.5}}},
		{"missing dataset", TuneRequest{Epsilon: 0.1,
			Space: SpaceJSON{Random: &RandomSpaceJSON{Model: "logistic"}}}},
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
