package core

import (
	"context"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
)

// Sparse-path benchmarks: the statistics pass and a full coordinator run on
// a high-dimensional low-density workload, where cost should track nnz
// rather than dim. CI's bench-smoke step runs these at one iteration so the
// sparse kernels cannot silently rot.

func sparseBenchData(b *testing.B, rows, dim int) *dataset.Dataset {
	b.Helper()
	ds := datagen.Criteo(datagen.Config{Rows: rows, Dim: dim, Seed: 1})
	if !allSparse(ds.X) {
		b.Fatalf("criteo fixture at dim %d has a row that is not sparse (density %v)", dim, ds.Density())
	}
	return ds
}

// BenchmarkSparseStatisticsGram measures the Gram-side ObservedFisher on
// sparse rows (dim > n forces the Gram side; density ~1%).
func BenchmarkSparseStatisticsGram(b *testing.B) {
	ds := sparseBenchData(b, 400, 4000)
	spec := models.LogisticRegression{Reg: 0.001}
	theta := make([]float64, ds.Dim)
	for i := range theta {
		theta[i] = 0.01 * float64(i%5)
	}
	opt := Options{Epsilon: 0.05}.WithDefaults()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeStatistics(spec, ds, theta, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseTrainEndToEnd runs the full coordinator (sample, optimize,
// statistics, search) on a sparse high-dimensional dataset.
func BenchmarkSparseTrainEndToEnd(b *testing.B) {
	ds := sparseBenchData(b, 20000, 10000)
	spec := models.LogisticRegression{Reg: 0.001}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSourceContext(context.Background(), spec, ds, Options{Epsilon: 0.05, Seed: 2, InitialSampleSize: 500}); err != nil {
			b.Fatal(err)
		}
	}
}
