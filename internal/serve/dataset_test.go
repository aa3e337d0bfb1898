package serve

import (
	"bytes"
	"encoding/json"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
)

// higgsCSV renders a small binary-classification workload as CSV text.
func higgsCSV(t *testing.T, rows int) []byte {
	t.Helper()
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: rows, Dim: 8, Seed: 5})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	return buf.Bytes()
}

// uploadMultipart posts a multipart dataset upload and returns the decoded
// response.
func uploadMultipart(t *testing.T, client *http.Client, base string, fields map[string]string, file []byte) (StoredDataset, int) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("file", "data.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(file); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/datasets", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info StoredDataset
	if resp.StatusCode == http.StatusCreated {
		if err := jsonDecode(resp, &info); err != nil {
			t.Fatalf("decode upload response: %v", err)
		}
	}
	return info, resp.StatusCode
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestDatasetUploadTrainByIDMatchesInline(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const rows = 2500
	csv := higgsCSV(t, rows)

	// Streaming multipart upload.
	info, code := uploadMultipart(t, client, ts.URL, map[string]string{
		"format": "csv", "task": "binary", "name": "higgs-up",
	}, csv)
	if code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	if info.Rows != rows || info.Dim != 8 || info.Task != "binary" || info.Name != "higgs-up" {
		t.Fatalf("upload info %+v", info)
	}

	// The dataset endpoints see it.
	var list DatasetList
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/datasets", nil, &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].ID != info.ID {
		t.Fatalf("list %+v", list)
	}
	var got StoredDataset
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/datasets/"+info.ID, nil, &got); code != http.StatusOK || got.Rows != rows {
		t.Fatalf("get status %d info %+v", code, got)
	}

	// Train by dataset_id.
	trainReq := func(ref DatasetRef) JobStatus {
		var tr TrainResponse
		code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
			Model:   modelSpec("logistic"),
			Dataset: ref,
			Epsilon: 0.08,
			Options: TrainOptions{Seed: 7, InitialSampleSize: 400},
		}, &tr)
		if code != http.StatusAccepted {
			t.Fatalf("train submit status %d", code)
		}
		st := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
		if st.State != JobSucceeded {
			t.Fatalf("job %s: %s (%s)", tr.JobID, st.State, st.Error)
		}
		return st
	}
	byID := trainReq(DatasetRef{ID: info.ID})

	// The equivalent inline request (same float bits: both sides parsed the
	// same CSV) at the same seed must produce the same model.
	mem, err := dataset.ReadCSV(bytes.NewReader(csv), -1, dataset.BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	inline := &dataset.Inline{Task: "binary", X: make([][]float64, mem.Len()), Y: mem.Y}
	for i := 0; i < mem.Len(); i++ {
		v := make([]float64, mem.Dim)
		mem.X[i].AddTo(v, 1)
		inline.X[i] = v
	}
	byInline := trainReq(DatasetRef{Inline: inline})

	var mID, mInline ModelInfo
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/models/"+byID.ModelID+"?theta=1", nil, &mID); code != http.StatusOK {
		t.Fatalf("model get %d", code)
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/models/"+byInline.ModelID+"?theta=1", nil, &mInline); code != http.StatusOK {
		t.Fatalf("model get %d", code)
	}
	if mID.SampleSize != mInline.SampleSize || mID.PoolSize != mInline.PoolSize {
		t.Fatalf("store %d/%d vs inline %d/%d", mID.SampleSize, mID.PoolSize, mInline.SampleSize, mInline.PoolSize)
	}
	if len(mID.Theta) == 0 || len(mID.Theta) != len(mInline.Theta) {
		t.Fatalf("theta lengths %d vs %d", len(mID.Theta), len(mInline.Theta))
	}
	for i := range mID.Theta {
		if mID.Theta[i] != mInline.Theta[i] {
			t.Fatalf("theta[%d]: by-id %v vs inline %v", i, mID.Theta[i], mInline.Theta[i])
		}
	}

	// Delete and confirm it is gone — from the store, and from the env/plan
	// cache the by-id job filled (the inline job's entries stay), so a later
	// train by that id answers the store's not-found instead of a cached
	// handle on deleted files.
	resident := s.m.PlanCache.Bytes.Value()
	if code := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/datasets/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, client, http.MethodGet, ts.URL+"/v1/datasets/"+info.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete status %d", code)
	}
	if after := s.m.PlanCache.Bytes.Value(); after <= 0 || after >= resident {
		t.Fatalf("plan cache holds %d bytes after the delete, %d before: the dataset's entries were not dropped", after, resident)
	}
	var gone ErrorResponse
	code = doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model: modelSpec("logistic"), Dataset: DatasetRef{ID: info.ID}, Epsilon: 0.08,
		Options: TrainOptions{Seed: 7, InitialSampleSize: 400},
	}, &gone)
	if code != http.StatusNotFound || !strings.Contains(gone.Error, "not found") {
		t.Fatalf("train on the deleted dataset: status %d, error %q", code, gone.Error)
	}
}

func TestDatasetRawBodyUploadAndTuneByID(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Raw-body upload with query parameters (the curl --data-binary path).
	csv := higgsCSV(t, 1500)
	resp, err := client.Post(ts.URL+"/v1/datasets?format=csv&task=binary&name=raw-up", "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var info StoredDataset
	if err := jsonDecode(resp, &info); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("raw upload status %d err %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if info.Rows != 1500 || info.Name != "raw-up" {
		t.Fatalf("raw upload info %+v", info)
	}

	var tr TrainResponse
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/tune", TuneRequest{
		Space: SpaceJSON{
			Grid: []modelio.SpecJSON{{Name: "logistic", Reg: 0.01}, {Name: "logistic", Reg: 0.0001}},
		},
		Dataset: DatasetRef{ID: info.ID},
		Epsilon: 0.1,
		Options: TuneOptions{Seed: 5, InitialSampleSize: 300},
	}, &tr)
	if code != http.StatusAccepted {
		t.Fatalf("tune submit status %d", code)
	}
	st := waitJob(t, client, ts.URL, tr.JobID, 120*time.Second)
	if st.State != JobSucceeded {
		t.Fatalf("tune job: %s (%s)", st.State, st.Error)
	}
	if st.Tune == nil || len(st.Tune.Leaderboard) != 2 {
		t.Fatalf("tune report %+v", st.Tune)
	}
}

func TestDatasetUploadValidationAndUnknownID(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Missing format/task.
	resp, err := client.Post(ts.URL+"/v1/datasets", "text/csv", strings.NewReader("1,2,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parameterless upload status %d", resp.StatusCode)
	}

	// A parse error mid-stream surfaces with the offending location.
	resp, err = client.Post(ts.URL+"/v1/datasets?format=csv&task=binary", "text/csv",
		strings.NewReader("1,2,0\n1,zap,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	var eresp ErrorResponse
	if err := jsonDecode(resp, &eresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad csv upload status %d", resp.StatusCode)
	}
	for _, want := range []string{"line 2", "column 2", "zap"} {
		if !strings.Contains(eresp.Error, want) {
			t.Fatalf("parse error %q does not name %q", eresp.Error, want)
		}
	}

	// Train against a dataset_id that does not exist → 404 at submit time.
	code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{ID: "d-999999"},
		Epsilon: 0.05,
	}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown dataset_id train status %d", code)
	}

	// A ref naming two sources is rejected.
	code = doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", TrainRequest{
		Model:   modelSpec("logistic"),
		Dataset: DatasetRef{ID: "d-000001", Synthetic: &datagen.Ref{Name: "higgs"}},
		Epsilon: 0.05,
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("ambiguous dataset ref status %d", code)
	}
}

func TestDatasetStoreSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()
	info, code := uploadMultipart(t, client, ts.URL, map[string]string{
		"format": "csv", "task": "binary",
	}, higgsCSV(t, 500))
	if code != http.StatusCreated {
		t.Fatalf("upload status %d", code)
	}
	ts.Close()
	s.Close()

	s2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen server: %v", err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var got StoredDataset
	if code := doJSON(t, ts2.Client(), http.MethodGet, ts2.URL+"/v1/datasets/"+info.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("get after restart status %d", code)
	}
	if got.Rows != 500 {
		t.Fatalf("restarted manifest %+v", got)
	}
	var h Health
	if code := doJSON(t, ts2.Client(), http.MethodGet, ts2.URL+"/healthz", nil, &h); code != http.StatusOK || h.Datasets != 1 {
		t.Fatalf("healthz after restart: %d datasets (status %d)", h.Datasets, code)
	}
}

// TestMultipartUploadHonorsMaxUploadBytes: the multipart path must flow
// through the same byte cap as raw uploads (413, not an unbounded write).
func TestMultipartUploadHonorsMaxUploadBytes(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), MaxUploadBytes: 10 << 10})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, code := uploadMultipart(t, ts.Client(), ts.URL, map[string]string{
		"format": "csv", "task": "binary",
	}, higgsCSV(t, 2000)) // ~600 KB, far over the 10 KiB cap
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized multipart upload status %d, want 413", code)
	}
	if s.Store().Len() != 0 {
		t.Fatalf("capped upload still stored %d datasets", s.Store().Len())
	}
}
