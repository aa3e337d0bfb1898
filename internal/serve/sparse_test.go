package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
)

// TestServeSparseInline drives a sparse inline upload end to end: a
// high-dimensional low-density dataset ships as indices+values, trains,
// and the resulting model predicts identically to one trained on the same
// rows shipped dense — the wire-level face of the sparse/dense parity
// contract.
func TestServeSparseInline(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	ds, err := datagen.Generate("criteo", datagen.Config{Rows: 1200, Dim: 1500, Seed: 9})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	sparse := &dataset.Inline{Task: "binary", Dim: ds.Dim, Y: ds.Y}
	denseUp := &dataset.Inline{Task: "binary", Y: ds.Y}
	probe := make([][]float64, 0, 50)
	for i := 0; i < ds.Len(); i++ {
		sp := ds.X[i].(*dataset.SparseRow)
		sparse.Indices = append(sparse.Indices, sp.Idx)
		sparse.Values = append(sparse.Values, sp.Val)
		row := make([]float64, ds.Dim)
		sp.AddTo(row, 1)
		denseUp.X = append(denseUp.X, row)
		if len(probe) < 50 {
			probe = append(probe, row)
		}
	}

	train := func(in *dataset.Inline) string {
		req := TrainRequest{
			Model:   modelio.SpecJSON{Name: "logistic", Reg: 0.001},
			Dataset: DatasetRef{Inline: in},
			Epsilon: 0.1,
			Delta:   0.05,
			Options: TrainOptions{Seed: 5, InitialSampleSize: 300},
		}
		var tr TrainResponse
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", req, &tr); code != http.StatusAccepted {
			t.Fatalf("train status %d", code)
		}
		st := waitJob(t, client, ts.URL, tr.JobID, 60*time.Second)
		if st.State != JobSucceeded {
			t.Fatalf("job %+v, want succeeded", st)
		}
		return st.ModelID
	}
	sparseModel := train(sparse)
	denseModel := train(denseUp)

	var prS, prD PredictResponse
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/models/"+sparseModel+"/predict", PredictRequest{Rows: probe}, &prS); code != http.StatusOK {
		t.Fatalf("sparse predict status %d", code)
	}
	if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/models/"+denseModel+"/predict", PredictRequest{Rows: probe}, &prD); code != http.StatusOK {
		t.Fatalf("dense predict status %d", code)
	}
	for i := range prS.Predictions {
		if prS.Predictions[i] != prD.Predictions[i] {
			t.Fatalf("row %d: sparse-trained %v vs dense-trained %v", i, prS.Predictions[i], prD.Predictions[i])
		}
	}

	// Malformed shapes are rejected at admission.
	bad := []*dataset.Inline{
		{Task: "binary", X: [][]float64{{1}}, Indices: [][]int32{{0}}, Values: [][]float64{{1}}, Y: []float64{1}},
		{Task: "binary", Indices: [][]int32{{0}}, Y: []float64{1}},
		{Task: "binary"},
	}
	for i, in := range bad {
		req := TrainRequest{Model: modelio.SpecJSON{Name: "logistic", Reg: 0.001},
			Dataset: DatasetRef{Inline: in}, Epsilon: 0.1}
		if code := doJSON(t, client, http.MethodPost, ts.URL+"/v1/train", req, nil); code != http.StatusBadRequest {
			t.Fatalf("bad inline %d admitted with status %d", i, code)
		}
	}
}
