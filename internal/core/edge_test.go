package core

import (
	"context"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// PPCA goes through the generic (non-score) Sample Size Estimator path and
// measures v in parameter space; the chosen n must still satisfy its probe
// and the probe at N must be trivially satisfied.
func TestSearcherPPCAPath(t *testing.T) {
	ds := datagen.MNIST(datagen.Config{Rows: 5000, Dim: 25, Seed: 41})
	spec := models.NewPPCA(3)
	env := NewEnv(ds, Options{Epsilon: 0.01, Seed: 42})
	n0 := 300
	rng := stat.NewRNG(43)
	sample := poolOf(t, env).Subset(dataset.SampleWithoutReplacement(rng, env.PoolLen(), n0))
	theta, _, err := spec.TrainCustom(sample)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStatistics(spec, sample, theta, Options{Epsilon: 0.01}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(spec, theta, st.Factor, n0, env.PoolLen(), env.Holdout(), 0.01, 0.05, 50, rng)
	if s.scoreModel != nil {
		t.Fatal("PPCA must not take the score fast path")
	}
	res := s.Search()
	if !s.Probe(res.N).Satisfied {
		t.Fatalf("chosen n=%d fails its own probe", res.N)
	}
}

// A requested ε larger than any possible v must return the initial model
// immediately.
func TestTrainTrivialEpsilon(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 5000, Dim: 5, Seed: 44})
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{
		Epsilon: 1.0, Seed: 45, InitialSampleSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedInitialModel || res.SampleSize != 200 {
		t.Fatalf("ε=1 should be satisfied by n₀: %+v", res)
	}
}

// Unsupervised datasets have no labels; the coordinator must work with an
// empty holdout diff (PPCA diffs on parameters).
func TestTrainUnsupervisedEmptyLabels(t *testing.T) {
	ds := datagen.MNIST(datagen.Config{Rows: 3000, Dim: 16, Seed: 46})
	unlabeled := &dataset.Dataset{X: ds.X, Dim: ds.Dim, Task: dataset.Unsupervised, Name: "unlabeled"}
	res, err := TrainSourceContext(context.Background(), models.NewPPCA(2), unlabeled, Options{Epsilon: 0.05, Seed: 47, InitialSampleSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Theta) != 16*2 {
		t.Fatalf("theta dim %d", len(res.Theta))
	}
}

// EstimateAccuracy with a zero-rank factor (a degenerate, constant
// gradient field) must not panic and must report zero deviation.
func TestEstimateAccuracyZeroRankFactor(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 500, Dim: 3, Seed: 48})
	spec := models.LogisticRegression{Reg: 0.01}
	f := &DenseFactor{L: linalg.NewDense(3, 0)} // rank 0
	est := EstimateAccuracy(spec, []float64{1, 2, 3}, f, 0.01, ds, 20, 0.05, stat.NewRNG(49))
	if est.Epsilon != 0 {
		t.Fatalf("zero-rank factor should give ε=0, got %v", est.Epsilon)
	}
}
