package models

import (
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/optimize"
)

// ppcaData generates zero-mean data from a true 2-factor PPCA model in d
// dimensions: x = W z + σ ε.
func ppcaData(rng *rand.Rand, n, d int, sigma float64) (*dataset.Dataset, *linalg.Dense) {
	q := 2
	w := linalg.NewDense(d, q)
	w.Set(0, 0, 3)
	w.Set(1, 0, 2)
	w.Set(2, 1, 2.5)
	w.Set(3, 1, -1.5)
	ds := &dataset.Dataset{Dim: d, Task: dataset.Unsupervised, Name: "ppca-synth"}
	z := make([]float64, q)
	for i := 0; i < n; i++ {
		z[0], z[1] = rng.NormFloat64(), rng.NormFloat64()
		row := make(dataset.DenseRow, d)
		for r := 0; r < d; r++ {
			row[r] = linalg.Dot(w.Row(r), z) + sigma*rng.NormFloat64()
		}
		ds.X = append(ds.X, row)
	}
	return ds, w
}

func TestPPCATrainRecoversSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds, trueW := ppcaData(rng, 3000, 6, 0.3)
	spec := NewPPCA(2)
	res, err := Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The span of the learned loading matrix must match the true span:
	// project each true column onto the learned columns.
	w := linalg.NewDenseFrom(6, 2, res.Theta)
	for col := 0; col < 2; col++ {
		truth := make([]float64, 6)
		for r := 0; r < 6; r++ {
			truth[r] = trueW.At(r, col)
		}
		// cos of angle between truth and its projection onto span(w).
		ginv, err := linalg.Inverse(linalg.MatMulTransA(w, w))
		if err != nil {
			t.Fatal(err)
		}
		wx := make([]float64, 2)
		w.T().MulVec(truth, wx)
		coef := make([]float64, 2)
		ginv.MulVec(wx, coef)
		proj := make([]float64, 6)
		w.MulVec(coef, proj)
		cos := linalg.Cosine(truth, proj)
		if cos < 0.98 {
			t.Fatalf("column %d recovered with cosine %v", col, cos)
		}
	}
	// σ² should be near the true noise variance.
	if s := spec.SigmaSq(); math.Abs(s-0.09) > 0.05 {
		t.Fatalf("sigma² = %v want ≈ 0.09", s)
	}
}

func TestPPCATrainDeterministicSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds, _ := ppcaData(rng, 1000, 5, 0.2)
	a := NewPPCA(2)
	b := NewPPCA(2)
	ta, _, err := a.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := b.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("PPCA training is not deterministic")
		}
	}
	// Two models trained on overlapping samples of the same source should
	// be cosine-close thanks to sign canonicalization.
	rng2 := rand.New(rand.NewSource(74))
	ds2, _ := ppcaData(rng2, 1000, 5, 0.2)
	c := NewPPCA(2)
	tc, _, err := c.TrainCustom(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if cos := linalg.Cosine(ta, tc); cos < 0.95 {
		t.Fatalf("independently sampled PPCA models have cosine %v", cos)
	}
}

// The PPCA per-example gradient must match finite differences of the
// per-example negative log-likelihood.
func TestPPCAGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ds, _ := ppcaData(rng, 50, 4, 0.5)
	spec := NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb away from the optimum so the gradient is non-trivial.
	for i := range theta {
		theta[i] += 0.1 * rng.NormFloat64()
	}
	small := ds.Subset([]int{0, 1, 2, 3, 4})
	got := analyticGradSum(spec, small, theta)
	want := fdGrad(spec, small, theta)
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-3*(1+math.Abs(want[j])) {
			t.Fatalf("ppca grad[%d]=%v fd %v", j, got[j], want[j])
		}
	}
}

func TestPPCAGradRowMatchesAccumulated(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ds, _ := ppcaData(rng, 30, 4, 0.5)
	spec := NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		row := spec.ExampleGradRow(theta, ds.X[i], 0)
		got := make([]float64, len(theta))
		row.AddTo(got, 1)
		want := make([]float64, len(theta))
		spec.ExampleLossGrad(theta, ds.X[i], 0, want)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-10 {
				t.Fatalf("row %d grad mismatch at %d", i, j)
			}
		}
	}
}

// At the MLE the mean per-example gradient should be near zero (stationary
// point of the likelihood).
func TestPPCAStationaryAtMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ds, _ := ppcaData(rng, 4000, 5, 0.4)
	spec := NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	g := analyticGradSum(spec, ds, theta)
	linalg.Scale(1/float64(ds.Len()), g)
	if n := linalg.NormInf(g); n > 0.02 {
		t.Fatalf("mean gradient at MLE = %v, want ≈ 0", n)
	}
}

func TestPPCARejectsBadShapes(t *testing.T) {
	ds := &dataset.Dataset{Dim: 3, Task: dataset.Unsupervised}
	ds.X = append(ds.X, dataset.DenseRow{1, 2, 3})
	spec := NewPPCA(5) // q >= d
	if _, _, err := spec.TrainCustom(ds); err == nil {
		t.Fatal("expected q >= d error")
	}
	spec2 := NewPPCA(2)
	if _, _, err := spec2.TrainCustom(ds); err == nil {
		t.Fatal("expected too-few-rows error")
	}
}

func TestPPCADefaultSigmaBeforeTraining(t *testing.T) {
	spec := NewPPCA(2)
	if spec.SigmaSq() != 1 {
		t.Fatalf("default sigma² = %v want 1", spec.SigmaSq())
	}
}
