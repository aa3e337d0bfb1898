package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// The estimators' score path assumes that PredictScores over a Block's
// scores of θ equals Predict(θ, x) row by row for every ScoreModel, and
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
				fromScores, batch := make([]float64, ds.Len()), make([]float64, ds.Len())
				sm.PredictScores(blockScores(spec, theta, ds), fromScores)
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

// A Block's scores and PredictInto of a dense multi-class model run as
// class lanes, with the lane kernels on (where the CPU has them) and off;
// each score must be logitsInto's bits and each prediction Predict's, over
// awkward values and across PredictInto's blocks of rows. NaNs compare
// equal whatever their payload (linalg's lane tests say why).
func TestClassLanesMatchLogits(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("lanes=%v", on), func(t *testing.T) {
			defer linalg.SetLanes(on)()
			classLanesMatchLogits(t)
		})
	}
}

func classLanesMatchLogits(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	awkward := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e300}
	value := func() float64 {
		if r.Intn(8) == 0 {
			return awkward[r.Intn(len(awkward))]
		}
		return r.NormFloat64()
	}
	for _, k := range []int{3, 10, 16} {
		for _, d := range []int{1, 7, 40} {
			rows := make([]dataset.Row, 300)
			for i := range rows {
				x := make(dataset.DenseRow, d)
				for j := range x {
					x[j] = value()
				}
				rows[i] = x
			}
			theta := make([]float64, k*d)
			for i := range theta {
				theta[i] = value()
			}
			spec := MaxEntropy{Classes: k}
			z := make([]float64, k)
			scores := blockScores(spec, theta, &dataset.Dataset{Dim: d, Task: dataset.MultiClassification, NumClasses: k, X: rows})
			preds := make([]float64, len(rows))
			PredictInto(spec, theta, rows, preds)
			for i, x := range rows {
				logitsInto(theta, x, k, d, z)
				for c, want := range z {
					got := scores[i*k+c]
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("k=%d d=%d row %d class %d: score %v, logitsInto %v", k, d, i, c, got, want)
					}
				}
				if want := spec.Predict(theta, x); preds[i] != want {
					t.Fatalf("k=%d d=%d row %d: PredictInto %v, Predict %v", k, d, i, preds[i], want)
				}
			}
		}
	}
}

// BenchmarkScoresMaxent times the estimators' holdout scoring of one θ at
// me-stats-mem's shape: ten classes of 40 weights over 6000 dense rows, one
// vector in a Block.
func BenchmarkScoresMaxent(b *testing.B) {
	ds, theta := benchData("maxent", 6000, 40)
	spec := MaxEntropy{Classes: 10}
	blk := NewBlock(spec, len(theta), ds)
	out := [][]float64{make([]float64, ds.Len()*10)}
	b.ReportAllocs()
	for b.Loop() {
		blk.Vectors(1)
		blk.Set(0, theta)
		blk.Scores(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ds.Len()), "ns/row")
}

// blockScores returns the holdout scores of theta alone, through a Block.
func blockScores(spec Spec, theta []float64, holdout *dataset.Dataset) []float64 {
	b := NewBlock(spec, len(theta), holdout)
	b.Vectors(1)
	b.Set(0, theta)
	out := make([]float64, holdout.Len()*spec.(ScoreModel).NumScores(len(theta), holdout.Dim))
	b.Scores([][]float64{out})
	return out
}
