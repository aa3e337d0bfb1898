package core

import (
	"bytes"
	"context"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/store"
)

// storeBacked writes a synthetic dataset through CSV into a fresh store
// and returns the handle next to the equivalently parsed in-memory copy
// (both sides see the same post-round-trip float bits).
func storeBacked(t *testing.T, rows int) (*store.Handle, *dataset.Dataset) {
	t.Helper()
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: rows, Dim: 12, Seed: 3})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	csv := buf.Bytes()
	mem, err := dataset.ReadCSV(bytes.NewReader(csv), -1, dataset.BinaryClassification)
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	h, err := st.Ingest(bytes.NewReader(csv), store.IngestOptions{
		Format: "csv", Task: dataset.BinaryClassification,
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return h, mem
}

// TestOutOfCoreTrainingStaysUnderRowBudget is the acceptance test for the
// store path: a dataset strictly larger than the in-memory row budget
// trains under an (ε, δ) contract while the server-side source serves only
// sample + holdout rows — the budget makes any full-pool materialization a
// hard error, and the counter proves the pool was never close to loaded.
func TestOutOfCoreTrainingStaysUnderRowBudget(t *testing.T) {
	const rows = 8000
	h, _ := storeBacked(t, rows)
	const budget = rows / 4 // any single materialization beyond this fails
	h.LimitMaterialize(budget)

	opt := Options{Epsilon: 0.08, Delta: 0.1, Seed: 11, InitialSampleSize: 600}
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.001}, h, opt)
	if err != nil {
		t.Fatalf("out-of-core train: %v", err)
	}
	if res.PoolSize >= rows || res.PoolSize <= 0 {
		t.Fatalf("pool size %d", res.PoolSize)
	}
	if got := h.RowsMaterialized(); got >= rows {
		t.Fatalf("materialized %d rows — the whole dataset", got)
	} else if got > int64(budget)+2000 { // samples + holdout + test slack
		t.Fatalf("materialized %d rows, far above the working set", got)
	}

	// The full-training path must trip the budget, not quietly load N rows.
	env, err := NewEnvFromSource(h, opt)
	if err != nil {
		t.Fatalf("env: %v", err)
	}
	if _, err := env.Pool(); err == nil {
		t.Fatal("full pool materialization slipped past the row budget")
	}
}

// TestStoreBackedTrainingMatchesInMemory: the same seed must give the same
// split, the same sample indices, and — float bits passing through the
// binary format untouched — the exact same model.
func TestStoreBackedTrainingMatchesInMemory(t *testing.T) {
	h, mem := storeBacked(t, 4000)
	spec := models.LogisticRegression{Reg: 0.001}
	opt := Options{Epsilon: 0.02, Delta: 0.05, Seed: 17, InitialSampleSize: 300, MinSampleSize: 300}

	fromStore, err := TrainSourceContext(context.Background(), spec, h, opt)
	if err != nil {
		t.Fatalf("store train: %v", err)
	}
	fromMem, err := TrainSourceContext(context.Background(), spec, mem, opt)
	if err != nil {
		t.Fatalf("memory train: %v", err)
	}
	if fromStore.SampleSize != fromMem.SampleSize {
		t.Fatalf("sample sizes differ: %d vs %d", fromStore.SampleSize, fromMem.SampleSize)
	}
	if fromStore.EstimatedEpsilon != fromMem.EstimatedEpsilon {
		t.Fatalf("epsilons differ: %v vs %v", fromStore.EstimatedEpsilon, fromMem.EstimatedEpsilon)
	}
	for i := range fromStore.Theta {
		if fromStore.Theta[i] != fromMem.Theta[i] {
			t.Fatalf("theta[%d]: store %v vs memory %v", i, fromStore.Theta[i], fromMem.Theta[i])
		}
	}
}

// TestStoreBackedSharedSampleNestsAndMatchesMemory covers the tune
// subsystem's reuse contract on the out-of-core path: store-backed
// SharedSample(m) is a prefix of SharedSample(n) for m ≤ n, and both are
// byte-identical to the in-memory env's draws at the same seed.
func TestStoreBackedSharedSampleNestsAndMatchesMemory(t *testing.T) {
	h, mem := storeBacked(t, 3000)
	opt := Options{Epsilon: 0.1, Seed: 23}
	storeEnv, err := NewEnvFromSource(h, opt)
	if err != nil {
		t.Fatalf("store env: %v", err)
	}
	memEnv := NewEnv(mem, opt)

	small, err := storeEnv.SharedSample(150)
	if err != nil {
		t.Fatalf("store shared sample: %v", err)
	}
	big, err := storeEnv.SharedSample(600)
	if err != nil {
		t.Fatalf("store shared sample: %v", err)
	}
	memBig, err := memEnv.SharedSample(600)
	if err != nil {
		t.Fatalf("memory shared sample: %v", err)
	}
	if small.Len() != 150 || big.Len() != 600 {
		t.Fatalf("sizes %d/%d", small.Len(), big.Len())
	}
	dim := mem.Dim
	vec := func(r dataset.Row) []float64 {
		v := make([]float64, dim)
		r.AddTo(v, 1)
		return v
	}
	for i := 0; i < big.Len(); i++ {
		a, b := vec(big.X[i]), vec(memBig.X[i])
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d feature %d: store %v vs memory %v", i, j, a[j], b[j])
			}
		}
		if big.Y[i] != memBig.Y[i] {
			t.Fatalf("row %d label: store %v vs memory %v", i, big.Y[i], memBig.Y[i])
		}
		if i < small.Len() {
			s := vec(small.X[i])
			for j := range s {
				if s[j] != a[j] {
					t.Fatalf("row %d: store samples are not nested", i)
				}
			}
		}
	}
	// Only 600 distinct pool rows (plus the eager holdout) should ever have
	// been read: the 150-sample is a prefix re-read, not a new draw.
	if got := h.RowsMaterialized(); got > 600+150+int64(memEnv.Holdout().Len())+int64(memEnv.Test().Len()) {
		t.Fatalf("materialized %d rows for nested samples", got)
	}
}
