package core

import (
	"context"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/models"
)

// The determinism contract of the compute layer, end to end: at a fixed
// parallelism degree, a full BlinkML run (training, statistics, accuracy
// estimation, sample-size search, final training) is bit-identical across
// repetitions, including at a degree > 1 where every kernel actually
// chunks.
func TestCoordinatorDeterministicAtFixedDegree(t *testing.T) {
	prev := compute.Parallelism()
	compute.SetParallelism(4)
	defer compute.SetParallelism(prev)

	run := func() *Result {
		t.Helper()
		ds := datagen.Criteo(datagen.Config{Rows: 8000, Dim: 120, Seed: 21})
		res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.001}, ds, Options{
			Epsilon: 0.01, Seed: 22, InitialSampleSize: 400, K: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	for rep := 0; rep < 2; rep++ {
		again := run()
		if again.SampleSize != first.SampleSize {
			t.Fatalf("rep %d: sample size %d vs %d", rep, again.SampleSize, first.SampleSize)
		}
		for j := range first.Theta {
			if again.Theta[j] != first.Theta[j] {
				t.Fatalf("rep %d: theta[%d] = %v vs %v (not bit-identical)", rep, j, again.Theta[j], first.Theta[j])
			}
		}
	}
}

// Statistics must also be deterministic on the covariance side (dense
// chunked reduction path) at degree > 1.
func TestStatisticsDeterministicAtFixedDegree(t *testing.T) {
	prev := compute.Parallelism()
	compute.SetParallelism(3)
	defer compute.SetParallelism(prev)

	ds := datagen.Higgs(datagen.Config{Rows: 1200, Dim: 30, Seed: 23})
	spec := models.LogisticRegression{Reg: 0.01}
	theta := make([]float64, 30)
	for i := range theta {
		theta[i] = 0.1 * float64(i%5)
	}
	first, err := ComputeStatistics(spec, ds, theta, Options{Epsilon: 0.05}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	fl, ok := first.Factor.(*DenseFactor)
	if !ok {
		t.Fatalf("expected dense factor, got %T", first.Factor)
	}
	for rep := 0; rep < 2; rep++ {
		again, err := ComputeStatistics(spec, ds, theta, Options{Epsilon: 0.05}.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		al := again.Factor.(*DenseFactor)
		if len(al.L.Data) != len(fl.L.Data) {
			t.Fatalf("rep %d: factor shape changed", rep)
		}
		for i := range fl.L.Data {
			if al.L.Data[i] != fl.L.Data[i] {
				t.Fatalf("rep %d: L[%d] differs (not bit-identical)", rep, i)
			}
		}
	}
}
