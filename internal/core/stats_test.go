package core

import (
	"math"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

func trainOn(t *testing.T, spec models.Spec, ds *dataset.Dataset) []float64 {
	t.Helper()
	res, err := models.Train(spec, ds, nil, optimize.Options{GradTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	return res.Theta
}

func TestAlpha(t *testing.T) {
	if got := Alpha(100, 1000); math.Abs(got-(0.01-0.001)) > 1e-15 {
		t.Fatalf("Alpha=%v", got)
	}
	if Alpha(1000, 1000) != 0 || Alpha(2000, 1000) != 0 {
		t.Fatal("Alpha must clamp at n >= N")
	}
}

// All three statistics methods must produce (nearly) the same covariance
// H⁻¹JH⁻¹ on a low-dimensional logistic problem.
func TestStatisticsMethodsAgree(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 3000, Dim: 6, Seed: 1})
	spec := models.LogisticRegression{Reg: 0.01}
	theta := trainOn(t, spec, ds)

	covs := map[Method]*linalg.Dense{}
	for _, m := range []Method{ObservedFisher, InverseGradients, ClosedForm} {
		st, err := ComputeStatistics(spec, ds, theta, Options{Method: m, Epsilon: 0.1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		covs[m] = Covariance(st.Factor)
	}
	ref := covs[ClosedForm]
	scale := ref.FrobeniusNorm()
	for _, m := range []Method{ObservedFisher, InverseGradients} {
		if d := linalg.FrobeniusDistance(covs[m], ref); d > 0.15*scale {
			t.Errorf("%v covariance deviates from ClosedForm by %v (ref norm %v)", m, d, scale)
		}
	}
}

// The Gram-side (d > n) and covariance-side (d <= n) ObservedFisher paths
// must agree on the same data.
func TestObservedFisherGramAndCovarianceSidesAgree(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 40, Dim: 8, Seed: 2}) // n=40 > d=8
	spec := models.LogisticRegression{Reg: 0.05}
	theta := trainOn(t, spec, ds)

	rows := models.PerExampleGradRows(spec, ds, theta)
	mean := make([]float64, len(theta))
	for _, r := range rows {
		r.AddTo(mean, 1)
	}
	linalg.Scale(1/float64(len(rows)), mean)

	opt := Options{Epsilon: 0.1}.WithDefaults()
	covSide, err := fisherCovarianceSide(spec, ds, theta, spec.Reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	gramSide, err := fisherGramSide(rows, mean, len(theta), len(rows), spec.Reg, opt)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Covariance(covSide.Factor)
	c2 := Covariance(gramSide.Factor)
	if d := linalg.FrobeniusDistance(c1, c2); d > 1e-6*(1+c1.FrobeniusNorm()) {
		t.Fatalf("Gram and covariance sides disagree by %v", d)
	}
}

// Factor identity: Covariance(f) == L·Lᵀ and Apply is linear.
func TestFactorApplyMatchesCovariance(t *testing.T) {
	ds := datagen.Gas(datagen.Config{Rows: 500, Dim: 5, Seed: 3})
	spec := models.LinearRegression{Reg: 0.01}
	theta := trainOn(t, spec, ds)
	st, err := ComputeStatistics(spec, ds, theta, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	f := st.Factor
	cov := Covariance(f)
	// E[(Lz)(Lz)ᵀ] over unit vectors reconstructs covariance columns.
	z := make([]float64, f.Rank())
	out := make([]float64, f.Dim())
	acc := linalg.NewDense(f.Dim(), f.Dim())
	for j := 0; j < f.Rank(); j++ {
		z[j] = 1
		applyOne(f, z, out)
		acc.OuterAdd(1, out, out)
		z[j] = 0
	}
	if d := linalg.FrobeniusDistance(acc, cov); d > 1e-8*(1+cov.FrobeniusNorm()) {
		t.Fatalf("sum of rank-1 applies deviates from covariance by %v", d)
	}
}

// Theorem 1, Monte-Carlo check: the empirical covariance of parameters
// trained on independent samples of size n must match α·H⁻¹JH⁻¹ within
// statistical tolerance.
func TestTheorem1ParameterCovariance(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo validation skipped in -short mode")
	}
	pool := datagen.Gas(datagen.Config{Rows: 30000, Dim: 4, Seed: 4})
	spec := models.LinearRegression{Reg: 0.001}
	n := 600
	trials := 50
	rng := stat.NewRNG(99)
	dim := 4
	thetas := make([][]float64, trials)
	for tr := 0; tr < trials; tr++ {
		idx := dataset.SampleWithoutReplacement(rng, pool.Len(), n)
		res, err := models.Train(spec, pool.Subset(idx), nil, optimize.Options{GradTol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		thetas[tr] = res.Theta
	}
	// Empirical per-coordinate variance.
	empVar := make([]float64, dim)
	for j := 0; j < dim; j++ {
		col := make([]float64, trials)
		for tr := range thetas {
			col[tr] = thetas[tr][j]
		}
		empVar[j] = stat.Variance(col)
	}
	// Predicted: α·diag(H⁻¹JH⁻¹) with the statistics computed on one sample.
	idx := dataset.SampleWithoutReplacement(rng, pool.Len(), n)
	sample := pool.Subset(idx)
	theta := trainOn(t, spec, sample)
	st, err := ComputeStatistics(spec, sample, theta, Options{Epsilon: 0.1, Method: ClosedForm})
	if err != nil {
		t.Fatal(err)
	}
	cov := Covariance(st.Factor)
	alpha := Alpha(n, pool.Len())
	for j := 0; j < dim; j++ {
		pred := alpha * cov.At(j, j)
		ratio := pred / empVar[j]
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("coordinate %d: predicted var %v, empirical %v (ratio %v)", j, pred, empVar[j], ratio)
		}
	}
}

func TestClosedFormRequiresHessianer(t *testing.T) {
	ds := datagen.MNIST(datagen.Config{Rows: 60, Dim: 16, Seed: 5})
	spec := models.NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeStatistics(spec, ds, theta, Options{Method: ClosedForm, Epsilon: 0.1}); err != ErrNoHessian {
		t.Fatalf("want ErrNoHessian, got %v", err)
	}
}

// A singular Hessian (duplicated features, zero regularization) must not
// crash the ClosedForm path.
func TestStatsFromSingularHessian(t *testing.T) {
	ds := &dataset.Dataset{Dim: 2, Task: dataset.Regression, Name: "collinear"}
	for i := 0; i < 50; i++ {
		v := float64(i) / 10
		ds.X = append(ds.X, dataset.DenseRow{v, v}) // perfectly collinear
		ds.Y = append(ds.Y, 2*v)
	}
	spec := models.LinearRegression{Reg: 0}
	theta := []float64{1, 1}
	st, err := ComputeStatistics(spec, ds, theta, Options{Method: ClosedForm, Epsilon: 0.1})
	if err != nil {
		t.Fatalf("singular Hessian not handled: %v", err)
	}
	if st.Rank > 2 {
		t.Fatalf("rank %d impossible", st.Rank)
	}
}

func TestObservedFisherEmptySample(t *testing.T) {
	ds := &dataset.Dataset{Dim: 2, Task: dataset.Regression}
	if _, err := ComputeStatistics(models.LinearRegression{}, ds, []float64{0, 0}, Options{Epsilon: 0.1}); err == nil {
		t.Fatal("expected error on empty sample")
	}
}

func TestGradsCallCounts(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 200, Dim: 5, Seed: 6})
	spec := models.LogisticRegression{Reg: 0.01}
	theta := trainOn(t, spec, ds)
	of, err := ComputeStatistics(spec, ds, theta, Options{Method: ObservedFisher, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if of.GradsCalls != 1 {
		t.Fatalf("ObservedFisher grads calls = %d, want 1", of.GradsCalls)
	}
	ig, err := ComputeStatistics(spec, ds, theta, Options{Method: InverseGradients, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ig.GradsCalls != 6 { // d+1
		t.Fatalf("InverseGradients grads calls = %d, want d+1=6", ig.GradsCalls)
	}
}
