package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
)

func modelSpec(name string) modelio.SpecJSON { return modelio.SpecJSON{Name: name} }

// doJSON issues a request with a JSON body and decodes the JSON response.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: unmarshal %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls the job endpoint until the job reaches a terminal state.
func waitJob(t *testing.T, client *http.Client, base, jobID string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		if code := doJSON(t, client, http.MethodGet, base+"/v1/jobs/"+jobID, nil, &st); code != http.StatusOK {
			t.Fatalf("job poll status %d", code)
		}
		if st.Done() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", jobID, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inlineHiggs converts a small synthetic binary-classification workload
// into an inline upload plus a probe batch for prediction checks.
func inlineHiggs(t *testing.T, rows int) (*dataset.Inline, [][]float64) {
	t.Helper()
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: rows, Dim: 10, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	inline := &dataset.Inline{Task: "binary", X: make([][]float64, ds.Len()), Y: ds.Y}
	for i := 0; i < ds.Len(); i++ {
		row := make([]float64, ds.Dim)
		ds.X[i].AddTo(row, 1)
		inline.X[i] = row
	}
	return inline, inline.X[:100]
}

// TestServeFullLoop drives the whole service end to end: enqueue a train
// job against a synthetic workload, poll it to completion, fetch the
// model, and run a batched predict — then reopens the registry from the
// same directory (a simulated restart) and checks the model still serves
// identical predictions.
func TestServeFullLoop(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	inline, probe := inlineHiggs(t, 1500)
	trainReq := TrainRequest{
		Model:   modelio.SpecJSON{Name: "logistic", Reg: 0.001},
		Dataset: DatasetRef{Inline: inline},
		Epsilon: 0.1,
		Delta:   0.05,
		Options: TrainOptions{Seed: 5, InitialSampleSize: 300},
	}
	var tr TrainResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", trainReq, &tr); code != http.StatusAccepted {
		t.Fatalf("train status %d", code)
	}
	if tr.JobID == "" || tr.State != JobQueued {
		t.Fatalf("train response %+v", tr)
	}

	st := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("job %+v, want succeeded", st)
	}
	if st.ModelID == "" || st.Diagnostics == nil || st.Diagnostics.TotalMs <= 0 {
		t.Fatalf("missing model id or diagnostics: %+v", st)
	}
	// The decision trail — factor rank and the probe sequence behind the
	// chosen n — reaches the response as the registry record holds it.
	rec, err := s.Registry().Get(st.ModelID)
	if err != nil {
		t.Fatalf("registry get: %v", err)
	}
	if st.Diagnostics.Rank != rec.Diag.Rank || st.Diagnostics.Rank <= 0 {
		t.Fatalf("diagnostics rank %d, registry %d", st.Diagnostics.Rank, rec.Diag.Rank)
	}
	if len(rec.Diag.Probes) == 0 || len(st.Diagnostics.Probes) != len(rec.Diag.Probes) {
		t.Fatalf("diagnostics carry %d probes, registry %d (want a searched job)", len(st.Diagnostics.Probes), len(rec.Diag.Probes))
	}
	for i, p := range rec.Diag.Probes {
		if got := st.Diagnostics.Probes[i]; got != ProbeJSON(p) {
			t.Fatalf("probe %d: response %+v, registry %+v", i, got, p)
		}
	}

	var info ModelInfo
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/models/"+st.ModelID, nil, &info); code != http.StatusOK {
		t.Fatalf("model get status %d", code)
	}
	if info.Spec.Name != "logistic" || info.Dim != 10 || info.SampleSize <= 0 || info.PoolSize <= info.SampleSize/2 {
		t.Fatalf("model info %+v", info)
	}
	if len(info.Theta) != 0 {
		t.Fatal("theta included without ?theta=1")
	}
	var withTheta ModelInfo
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/models/"+st.ModelID+"?theta=1", nil, &withTheta)
	if len(withTheta.Theta) != 10 {
		t.Fatalf("theta length %d, want 10", len(withTheta.Theta))
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

	var h Health
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" || h.Models < 1 || h.Parallelism < 1 {
		t.Fatalf("healthz %+v", h)
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "blinkml") || !strings.Contains(string(raw), "predictions_served") {
		t.Fatalf("metrics output missing blinkml counters: %.200s", raw)
	}

	// Simulated restart: a fresh server over the same directory must load
	// the persisted model and predict identically.
	ts.Close()
	s.Close()
	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var pr2 PredictResponse
	if code := doJSON(t, ts2.Client(), http.MethodPost, ts2.URL+"/v1/models/"+st.ModelID+"/predict", PredictRequest{Rows: probe}, &pr2); code != http.StatusOK {
		t.Fatalf("predict after restart: status %d", code)
	}
	for i := range pr.Predictions {
		if pr.Predictions[i] != pr2.Predictions[i] {
			t.Fatalf("row %d: prediction changed across restart (%v -> %v)", i, pr.Predictions[i], pr2.Predictions[i])
		}
	}

	// Evict and verify 404 + gone from disk-backed listing.
	if code := doJSON(t, ts2.Client(), http.MethodDelete, ts2.URL+"/v1/models/"+st.ModelID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, ts2.Client(), http.MethodGet, ts2.URL+"/v1/models/"+st.ModelID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted model still served (status %d)", code)
	}
	var list ModelList
	doJSON(t, ts2.Client(), http.MethodGet, ts2.URL+"/v1/models", nil, &list)
	for _, m := range list.Models {
		if m.ID == st.ModelID {
			t.Fatal("deleted model still listed")
		}
	}
}

// TestServeCancelStopsTraining enqueues a deliberately huge training job
// (full-pool maxent on a large synthetic MNIST), cancels it mid-run over
// HTTP, and checks the job reaches the cancelled state far sooner than the
// training could possibly have finished — i.e. the job's context actually
// stops the optimizer.
func TestServeCancelStopsTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a multi-minute training job to cancel")
	}
	s, err := New(Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Full-pool training (n0 >= rows) on 40k x 784 with 10 classes: minutes
	// of L-BFGS work if left alone.
	trainReq := TrainRequest{
		Model:   modelio.SpecJSON{Name: "maxent", Classes: 10, Reg: 0.001},
		Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "mnist", Rows: 40000, Seed: 11}},
		Epsilon: 0.01,
		Options: TrainOptions{Seed: 11, InitialSampleSize: 1 << 30, MaxIters: 5000},
	}
	var tr TrainResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", trainReq, &tr); code != http.StatusAccepted {
		t.Fatalf("train status %d", code)
	}

	// Wait until the job is actually running (dataset generation + first
	// optimizer iterations).
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
		time.Sleep(20 * time.Millisecond)
	}

	cancelAt := time.Now()
	var st JobStatus
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/"+tr.JobID, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel status %d", code)
	}
	final := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
	if final.State != JobCancelled {
		t.Fatalf("job %+v, want cancelled", final)
	}
	if took := time.Since(cancelAt); took > 45*time.Second {
		t.Fatalf("cancellation took %v; context is not stopping the optimizer", took)
	}
	// No model must have been stored for the cancelled job.
	if final.ModelID != "" || s.Registry().Len() != 0 {
		t.Fatalf("cancelled job left a model behind: %+v (registry %d)", final, s.Registry().Len())
	}
}

// TestServeRequestValidation exercises the error paths.
func TestServeRequestValidation(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name string
		req  TrainRequest
	}{
		{"unknown model", TrainRequest{Model: modelSpec("svm"), Epsilon: 0.1,
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs"}}}},
		{"bad epsilon", TrainRequest{Model: modelSpec("logistic"), Epsilon: 2,
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs"}}}},
		{"missing dataset", TrainRequest{Model: modelSpec("logistic"), Epsilon: 0.1}},
		{"both datasets", TrainRequest{Model: modelSpec("logistic"), Epsilon: 0.1,
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs"}, Inline: &dataset.Inline{Task: "binary", X: [][]float64{{1}}, Y: []float64{1}}}}},
		{"bad task", TrainRequest{Model: modelSpec("logistic"), Epsilon: 0.1,
			Dataset: DatasetRef{Inline: &dataset.Inline{Task: "clustering", X: [][]float64{{1}}}}}},
		// A synthetic reference is checked at admission like a model name:
		// these two used to answer 202 and fail (or exhaust memory) later.
		{"unknown generator", TrainRequest{Model: modelSpec("logistic"), Epsilon: 0.1,
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "nope"}}}},
		{"synthetic shape beyond the upload cap", TrainRequest{Model: modelSpec("logistic"), Epsilon: 0.1,
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs", Rows: 1_000_000_000_000}}}},
		// The pin fields are the server's to fill.
		{"client-supplied pin", TrainRequest{Model: modelSpec("logistic"), Epsilon: 0.1,
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "higgs"}, Rows: 10, RowCRC32: 1}}},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", tc.req, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		} else if er.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	var jobs JobList
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs", nil, &jobs); code != http.StatusOK || len(jobs.Jobs) != 0 {
		t.Errorf("refused requests left jobs behind: status %d, %+v", code, jobs.Jobs)
	}

	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/j-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/j-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", code)
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/models/m-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", code)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/models/m-999999/predict", PredictRequest{Rows: [][]float64{{1}}}, nil); code != http.StatusNotFound {
		t.Errorf("predict unknown model: status %d, want 404", code)
	}
}

// TestServeStructuredErrors checks every error path returns a structured
// JSON body ({"error": ...}) with the right status code — malformed
// payloads, wrong feature dimensions, and unknown model/job ids alike.
func TestServeStructuredErrors(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Train one tiny model so predict paths have a real target.
	inline, _ := inlineHiggs(t, 600)
	var tr TrainResponse
	doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{Inline: inline},
		Epsilon: 0.2,
		Options: TrainOptions{Seed: 1, InitialSampleSize: 200},
	}, &tr)
	st := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("setup job %+v", st)
	}
	predictURL := ts.URL + "/v1/models/" + st.ModelID + "/predict"

	// checkError posts raw bytes and asserts status + structured JSON error.
	checkError := func(name, method, url string, body []byte, wantStatus int) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatalf("%s: new request: %v", name, err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q, want application/json", name, ct)
		}
		raw, _ := io.ReadAll(resp.Body)
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: body %q is not a structured error", name, raw)
		}
	}

	// Malformed payloads (unparsable JSON, unknown fields).
	checkError("predict garbage body", http.MethodPost, predictURL, []byte("{not json"), http.StatusBadRequest)
	checkError("predict unknown field", http.MethodPost, predictURL, []byte(`{"rowz": [[1]]}`), http.StatusBadRequest)
	checkError("train garbage body", http.MethodPost, ts.URL+"/v1/train", []byte("]["), http.StatusBadRequest)
	checkError("tune garbage body", http.MethodPost, ts.URL+"/v1/tune", []byte("{{"), http.StatusBadRequest)

	// Wrong feature dimension and non-finite features.
	wrongDim, _ := json.Marshal(PredictRequest{Rows: [][]float64{{1, 2, 3}}})
	checkError("predict wrong dim", http.MethodPost, predictURL, wrongDim, http.StatusBadRequest)
	checkError("predict empty batch", http.MethodPost, predictURL, []byte(`{"rows": []}`), http.StatusBadRequest)
	huge := []byte(`{"rows": [[1,2,3,4,5,6,7,8,9,1e999]]}`)
	checkError("predict out-of-range feature", http.MethodPost, predictURL, huge, http.StatusBadRequest)

	// Unknown model and job ids, across every verb that takes one.
	checkError("unknown model get", http.MethodGet, ts.URL+"/v1/models/m-424242", nil, http.StatusNotFound)
	checkError("unknown model delete", http.MethodDelete, ts.URL+"/v1/models/m-424242", nil, http.StatusNotFound)
	wellFormed, _ := json.Marshal(PredictRequest{Rows: [][]float64{{1}}})
	checkError("unknown model predict", http.MethodPost, ts.URL+"/v1/models/m-424242/predict", wellFormed, http.StatusNotFound)
	checkError("unknown job get", http.MethodGet, ts.URL+"/v1/jobs/j-424242", nil, http.StatusNotFound)
	checkError("unknown job cancel", http.MethodDelete, ts.URL+"/v1/jobs/j-424242", nil, http.StatusNotFound)
}

// TestRequestBodyIsOneJSONValue: readJSON accepts exactly one JSON value
// per body. A valid train request followed by anything but whitespace is a
// structured 400 — never a 202 for the prefix with the suffix ignored.
func TestRequestBodyIsOneJSONValue(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const valid = `{"model":{"name":"logistic"},"dataset":{"synthetic":{"name":"higgs","rows":400,"dim":4,"seed":1}},"epsilon":0.3}`
	for _, c := range []struct {
		name, body string
		want       int
	}{
		{"one value", valid, http.StatusAccepted},
		{"trailing whitespace", valid + "\n \t\r\n", http.StatusAccepted},
		{"second value", valid + ` {"epsilon":5}`, http.StatusBadRequest},
		{"second value and word", valid + ` {"epsilon":5} trailing`, http.StatusBadRequest},
		{"trailing word", valid + " trailing", http.StatusBadRequest},
		{"stray closer", valid + "}", http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/train", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, resp.StatusCode, c.want, raw)
			continue
		}
		if c.want != http.StatusBadRequest {
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error != "serve: bad request body: unexpected data after JSON value" {
			t.Errorf("%s: body %s, want the structured trailing-data error", c.name, raw)
		}
	}
}

// TestPredictShapeValidation trains one tiny model and checks malformed
// predict batches are rejected.
// Validate refuses a NaN or ±Inf feature, naming the row and feature.
func TestPredictRequestValidateNonFinite(t *testing.T) {
	for _, c := range []struct {
		rows [][]float64
		want string
	}{
		{[][]float64{{1, math.NaN(), 3}}, "serve: row 0 feature 1 is not finite"},
		{[][]float64{{1, 2, 3}, {0, 0, math.Inf(1)}}, "serve: row 1 feature 2 is not finite"},
		{[][]float64{{math.Inf(-1), 2, 3}}, "serve: row 0 feature 0 is not finite"},
	} {
		req := PredictRequest{Rows: c.rows}
		if err := req.Validate(3); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%v) = %v, want %q", c.rows, err, c.want)
		}
	}
	if err := (&PredictRequest{Rows: [][]float64{{1, 2, 3}}}).Validate(3); err != nil {
		t.Errorf("a finite row: %v", err)
	}
}

func TestPredictShapeValidation(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	inline, _ := inlineHiggs(t, 600)
	var tr TrainResponse
	doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{Inline: inline},
		Epsilon: 0.2,
		Options: TrainOptions{Seed: 1, InitialSampleSize: 200},
	}, &tr)
	st := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("job %+v", st)
	}
	url := fmt.Sprintf("%s/v1/models/%s/predict", ts.URL, st.ModelID)
	if code := doJSON(t, client, http.MethodPost, url, PredictRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	if code := doJSON(t, client, http.MethodPost, url, PredictRequest{Rows: [][]float64{{1, 2}}}, nil); code != http.StatusBadRequest {
		t.Errorf("wrong dim: status %d, want 400", code)
	}
}

// TestUndersizedMulticlassSpecFailsTheJobNotTheServer: a maxent model sized
// for fewer classes than the data has labels used to be accepted and then
// index past its parameter blocks in a worker goroutine, taking the process
// down. The job must fail with an error naming both class counts, and the
// server must go on training and serving.
func TestUndersizedMulticlassSpecFailsTheJobNotTheServer(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	train := func(classes int) JobStatus {
		req := TrainRequest{
			Model:   modelio.SpecJSON{Name: "maxent", Classes: classes},
			Dataset: DatasetRef{Synthetic: &datagen.Ref{Name: "mnist", Rows: 1200, Dim: 12, Seed: 2}},
			Epsilon: 0.2,
			Options: TrainOptions{Seed: 1, InitialSampleSize: 200},
		}
		var tr TrainResponse
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", req, &tr); code != http.StatusAccepted {
			t.Fatalf("classes=%d: train status %d", classes, code)
		}
		return waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
	}

	st := train(3)
	if st.State != JobFailed || !strings.Contains(st.Error, "3 classes") || !strings.Contains(st.Error, "has 10") {
		t.Fatalf("undersized spec: job %s, error %q; want failed, naming 3 and 10 classes", st.State, st.Error)
	}
	st = train(10)
	if st.State != JobSucceeded {
		t.Fatalf("valid request after the failed one: job %s, error %q", st.State, st.Error)
	}
	var pr PredictResponse
	rows := [][]float64{make([]float64, 12), make([]float64, 12)}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/models/"+st.ModelID+"/predict", PredictRequest{Rows: rows}, &pr); code != http.StatusOK || len(pr.Predictions) != len(rows) {
		t.Fatalf("predict after the failed job: status %d, %d predictions", code, len(pr.Predictions))
	}
}
