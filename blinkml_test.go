package blinkml

import (
	"bytes"
	"context"
	"math"
	"testing"

	"blinkml/internal/modelio"
	"blinkml/internal/serve"
)

// TestPublicAPITune drives the hyperparameter-search subsystem through the
// public surface: a mixed grid+random space with successive halving, a
// ranked leaderboard, and a contract-carrying winner that predicts.
func TestPublicAPITune(t *testing.T) {
	ds, err := SyntheticDataset("higgs", 6000, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	space := TuneSpace{
		Grid: []ModelSpec{LogisticRegression(0.001)},
		Random: &TuneRandomSpace{
			Model: "logistic", N: 7, RegMin: 1e-6, RegMax: 1,
		},
	}
	cfg := TuneConfig{
		Train: Config{
			Epsilon: 0.1, Delta: 0.05, Seed: 3,
			InitialSampleSize: 300, K: 60, TestFraction: 0.15,
		},
		Halving: true,
		Rungs:   2,
		Eta:     2,
	}
	res, err := Tune(context.Background(), space, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 8 || len(res.Leaderboard) != 8 {
		t.Fatalf("evaluated %d, want 8", res.Evaluated)
	}
	if res.Pruned == 0 {
		t.Fatal("halving pruned nothing")
	}
	if math.IsNaN(res.Leaderboard[0].TestError) {
		t.Fatal("winner has no test metric")
	}
	best := res.Best
	if best == nil || best.EstimatedEpsilon <= 0 || best.EstimatedEpsilon > cfg.Train.Epsilon {
		t.Fatalf("winner %+v, want contract ε in (0, %v]", best, cfg.Train.Epsilon)
	}
	env := NewEnv(ds, cfg.Train)
	if p := best.Predict(env.Holdout().X[0]); p != 0 && p != 1 {
		t.Fatalf("winner prediction %v, want a class in {0,1}", p)
	}
	if acc := best.Accuracy(env.Test()); acc < 0.5 {
		t.Fatalf("winner test accuracy %v, want > 0.5", acc)
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds, err := SyntheticDataset("higgs", 12000, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epsilon: 0.05, Delta: 0.05, Seed: 1, InitialSampleSize: 400}
	approx, err := Train(LogisticRegression(0.01), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if approx.SampleSize <= 0 || approx.SampleSize > approx.PoolSize {
		t.Fatalf("bad sample size %d of %d", approx.SampleSize, approx.PoolSize)
	}
	full, err := TrainFull(LogisticRegression(0.01), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(ds, cfg)
	if v := approx.Diff(full, env.Holdout()); v > cfg.Epsilon {
		t.Fatalf("contract violated: v=%v > ε=%v", v, cfg.Epsilon)
	}
	// Predictions must be valid class labels.
	for i := 0; i < 10; i++ {
		p := approx.Predict(env.Holdout().X[i])
		if p != 0 && p != 1 {
			t.Fatalf("prediction %v not a binary label", p)
		}
	}
	if acc := approx.Accuracy(env.Holdout()); acc < 0.5 {
		t.Fatalf("holdout accuracy %v suspiciously low", acc)
	}
}

func TestPublicAPIAllModelConstructors(t *testing.T) {
	cases := []struct {
		spec ModelSpec
		data string
		dim  int
	}{
		{LinearRegression(0.001), "gas", 10},
		{LogisticRegression(0.001), "criteo", 200},
		{MaxEntropy(10, 0.001), "mnist", 36},
		{PoissonRegression(0.001), "counts", 6},
		{PPCA(3), "mnist", 25},
	}
	for _, c := range cases {
		t.Run(c.spec.Name(), func(t *testing.T) {
			ds, err := SyntheticDataset(c.data, 4000, c.dim, 7)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Train(c.spec, ds, Config{Epsilon: 0.2, Seed: 2, InitialSampleSize: 300, K: 40})
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Theta) == 0 {
				t.Fatal("empty parameters")
			}
			if m.EstimatedEpsilon > 0.2 {
				t.Fatalf("estimated ε %v exceeds request", m.EstimatedEpsilon)
			}
		})
	}
}

func TestPublicAPISyntheticUnknown(t *testing.T) {
	if _, err := SyntheticDataset("nope", 10, 10, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPublicAPISparseRowConstructor(t *testing.T) {
	r, err := NewSparseRow(10, []int32{2, 5}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.NNZ() != 2 || r.Dim() != 10 {
		t.Fatal("sparse row misconstructed")
	}
	if _, err := NewSparseRow(10, []int32{5, 2}, []float64{1, -1}); err == nil {
		t.Fatal("out-of-order indices accepted")
	}
}

func TestPublicAPIGeneralizationError(t *testing.T) {
	ds, err := SyntheticDataset("higgs", 8000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epsilon: 0.1, Seed: 4, TestFraction: 0.2}
	m, err := Train(LogisticRegression(0.01), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(ds, cfg)
	ge := m.GeneralizationError(env.Test())
	if ge < 0 || ge > 1 {
		t.Fatalf("generalization error %v out of range", ge)
	}
}

// TestEncodeModelCarriesDim: a max-entropy model trained with the class
// count inferred from the data (Classes: 0) has no way to recover the
// feature dimension from spec and θ alone, so the encoded model must carry
// the dimension it was trained at — a registry loading the file validates
// every predict row against it.
func TestEncodeModelCarriesDim(t *testing.T) {
	ds, err := SyntheticDataset("mnist", 3000, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(MaxEntropy(0, 0.001), ds, Config{Epsilon: 0.2, Seed: 2, InitialSampleSize: 300, K: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	rec, err := modelio.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dim != ds.Dim {
		t.Fatalf("decoded dim %d, want the data dimension %d", rec.Dim, ds.Dim)
	}
	row := make([]float64, ds.Dim)
	ds.X[0].AddTo(row, 1)
	req := serve.PredictRequest{Rows: [][]float64{row}}
	if err := req.Validate(rec.Dim); err != nil {
		t.Fatalf("a data row is rejected against the decoded model: %v", err)
	}
	if got, want := rec.Predict(DenseRow(row)), m.Predict(ds.X[0]); got != want {
		t.Fatalf("decoded model predicts %v, trained model %v", got, want)
	}
}
