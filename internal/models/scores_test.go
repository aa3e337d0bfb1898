package models

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blinkml/internal/dataset"
)

// The Sample Size Estimator's fast path assumes that PredictScores over
// Scores(θ, rows) equals Predict(θ, x) row by row for every ScoreModel, and
// every batch metric assumes the same of PredictInto. This property test
// guards both for all four GLM specs, dense and sparse inputs, and block
// lengths on either side of the row kernel's group of four.
func TestScoreModelConsistentWithPredict(t *testing.T) {
	for name, spec := range specsUnderTest() {
		sm, ok := spec.(ScoreModel)
		if !ok {
			t.Fatalf("%s must implement ScoreModel", name)
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				d := 2 + r.Intn(6)
				ds := datasetFor(name, r, 1+r.Intn(9), d, r.Intn(2) == 0)
				pd := spec.ParamDim(ds)
				theta := make([]float64, pd)
				for i := range theta {
					theta[i] = 2 * r.NormFloat64()
				}
				ns := sm.NumScores(pd, d)
				scores := make([]float64, ns*ds.Len())
				fromScores, batch := make([]float64, ds.Len()), make([]float64, ds.Len())
				Scores(theta, ds.X, ns, scores)
				sm.PredictScores(scores, fromScores)
				PredictInto(spec, theta, ds.X, batch)
				for i, x := range ds.X {
					if want := spec.Predict(theta, x); fromScores[i] != want || batch[i] != want {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestNumScores(t *testing.T) {
	if got := (LinearRegression{}).NumScores(7, 7); got != 1 {
		t.Errorf("linear NumScores=%d", got)
	}
	if got := (LogisticRegression{}).NumScores(7, 7); got != 1 {
		t.Errorf("logistic NumScores=%d", got)
	}
	if got := (PoissonRegression{}).NumScores(7, 7); got != 1 {
		t.Errorf("poisson NumScores=%d", got)
	}
	if got := (MaxEntropy{Classes: 4}).NumScores(28, 7); got != 4 {
		t.Errorf("maxent NumScores=%d", got)
	}
}

func TestMaxEntropyPredictScoresTieBreak(t *testing.T) {
	m := MaxEntropy{Classes: 3}
	// Equal scores resolve to the lowest class index, matching Predict.
	got := []float64{-1, -1}
	if m.PredictScores([]float64{1, 1, 1, 0, 2, 2}, got); got[0] != 0 || got[1] != 1 {
		t.Fatalf("ties broke to %v, want [0 1]", got)
	}
	ds := &dataset.Dataset{Dim: 1, Task: dataset.MultiClassification, NumClasses: 3}
	theta := []float64{1, 1, 1} // identical rows for every class
	if got := m.Predict(theta, dataset.DenseRow{1}); got != 0 {
		t.Fatalf("Predict tie broke to %v", got)
	}
	_ = ds
}
