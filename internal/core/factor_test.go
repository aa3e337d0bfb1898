package core

import (
	"context"
	"math"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

func TestInflateScalesApplies(t *testing.T) {
	base := &DenseFactor{L: linalg.Identity(3)}
	inflated := Inflate(base, 0.5)
	z := []float64{1, 2, 3}
	out := make([]float64, 3)
	inflated.Apply(z, out)
	for i := range z {
		if math.Abs(out[i]-1.5*z[i]) > 1e-12 {
			t.Fatalf("inflated apply %v want %v", out[i], 1.5*z[i])
		}
	}
	if inflated.Dim() != 3 || inflated.Rank() != 3 {
		t.Fatal("inflated factor dims wrong")
	}
}

func TestInflateNoopForZero(t *testing.T) {
	base := &DenseFactor{L: linalg.Identity(2)}
	if Inflate(base, 0) != Factor(base) {
		t.Fatal("zero inflation must return the factor unchanged")
	}
	if Inflate(base, -1) != Factor(base) {
		t.Fatal("negative inflation must return the factor unchanged")
	}
}

// VarianceInflation must make the accuracy estimate more conservative
// (larger ε₀) and the chosen sample size no smaller.
func TestVarianceInflationIsConservative(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 12000, Dim: 8, Seed: 31})
	spec := models.LogisticRegression{Reg: 0.01}
	base := Options{Epsilon: 0.03, Seed: 32, InitialSampleSize: 400}
	plain, err := TrainSourceContext(context.Background(), spec, ds, base)
	if err != nil {
		t.Fatal(err)
	}
	inflatedOpt := base
	inflatedOpt.VarianceInflation = 1.0
	conservative, err := TrainSourceContext(context.Background(), spec, ds, inflatedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if conservative.Diag.InitialEpsilon < plain.Diag.InitialEpsilon {
		t.Fatalf("inflation made ε₀ smaller: %v < %v",
			conservative.Diag.InitialEpsilon, plain.Diag.InitialEpsilon)
	}
	if conservative.SampleSize < plain.SampleSize {
		t.Fatalf("inflation shrank the chosen sample: %d < %d",
			conservative.SampleSize, plain.SampleSize)
	}
}

// Sampling through a factor — standard normals pushed through Apply, as
// the estimators draw — must reproduce the factor covariance empirically.
func TestSampleMatchesCovariance(t *testing.T) {
	l := linalg.NewDenseFrom(2, 2, []float64{2, 0, 1, 1})
	f := &DenseFactor{L: l}
	rng := stat.NewRNG(33)
	n := 40000
	var s0, s1, ss0, ss1, cross float64
	z := make([]float64, f.Rank())
	dst := make([]float64, 2)
	for i := 0; i < n; i++ {
		rng.NormVec(z)
		f.Apply(z, dst)
		d0, d1 := dst[0], dst[1]
		s0 += d0
		s1 += d1
		ss0 += d0 * d0
		ss1 += d1 * d1
		cross += d0 * d1
	}
	inv := 1 / float64(n)
	// Cov = L·Lᵀ = [[4, 2], [2, 2]].
	if math.Abs(s0*inv) > 0.05 || math.Abs(s1*inv) > 0.05 {
		t.Fatalf("sample mean drifted: %v %v", s0*inv, s1*inv)
	}
	if math.Abs(ss0*inv-4) > 0.15 || math.Abs(ss1*inv-2) > 0.1 || math.Abs(cross*inv-2) > 0.1 {
		t.Fatalf("sample covariance [%v %v; %v] want [4 2; 2]", ss0*inv, cross*inv, ss1*inv)
	}
}

// Training twice with the same options must be bit-for-bit deterministic.
func TestTrainDeterministic(t *testing.T) {
	ds := datagen.Criteo(datagen.Config{Rows: 8000, Dim: 200, Seed: 34})
	spec := models.LogisticRegression{Reg: 0.001}
	opt := Options{Epsilon: 0.05, Seed: 35, InitialSampleSize: 300, K: 40}
	a, err := TrainSourceContext(context.Background(), spec, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSourceContext(context.Background(), spec, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.SampleSize != b.SampleSize {
		t.Fatalf("sample sizes differ: %d vs %d", a.SampleSize, b.SampleSize)
	}
	for i := range a.Theta {
		if a.Theta[i] != b.Theta[i] {
			t.Fatalf("theta[%d] differs", i)
		}
	}
}
