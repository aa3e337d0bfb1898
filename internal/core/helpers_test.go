package core

import (
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
)

// poolOf materializes an in-memory env's pool (cannot fail for the
// in-memory sources every test here uses).
func poolOf(tb testing.TB, env *Env) *dataset.Dataset {
	tb.Helper()
	pool, err := env.Pool()
	if err != nil {
		tb.Fatalf("materialize pool: %v", err)
	}
	return pool
}

// sharedSampleOf is SharedSample with the in-memory no-error contract.
func sharedSampleOf(tb testing.TB, env *Env, n int) *dataset.Dataset {
	tb.Helper()
	ds, err := env.SharedSample(n)
	if err != nil {
		tb.Fatalf("shared sample %d: %v", n, err)
	}
	return ds
}

// atDegree pins the compute pool to degree for the rest of the test.
func atDegree(t *testing.T, degree int) {
	prev := compute.Parallelism()
	compute.SetParallelism(degree)
	t.Cleanup(func() { compute.SetParallelism(prev) })
}
