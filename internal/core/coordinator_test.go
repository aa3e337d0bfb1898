package core

import (
	"context"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
)

func defaultOptim() optimize.Options { return optimize.Options{} }

func TestTrainValidatesOptions(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 200, Dim: 4, Seed: 1})
	if _, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon > 1 accepted")
	}
	if _, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{Epsilon: 0.1, Delta: 2}); err == nil {
		t.Fatal("delta 2 accepted")
	}
}

func TestTrainEmptyPool(t *testing.T) {
	ds := &dataset.Dataset{Dim: 2, Task: dataset.BinaryClassification}
	ds.X = append(ds.X, dataset.DenseRow{1, 2}, dataset.DenseRow{3, 4})
	ds.Y = append(ds.Y, 0, 1)
	// With 2 rows, the split leaves an empty-ish pool; expect a clean error
	// or a tiny-model result, never a panic.
	_, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.1}, ds, Options{Epsilon: 0.1, Seed: 1})
	_ = err // either outcome is acceptable; the test asserts no panic
}

func TestTrainLooseContractUsesInitialModel(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 12000, Dim: 6, Seed: 2})
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{
		Epsilon: 0.5, Seed: 3, InitialSampleSize: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedInitialModel {
		t.Fatalf("ε=0.5 should be satisfied by the initial model (ε₀=%v)", res.Diag.InitialEpsilon)
	}
	if res.SampleSize != 500 {
		t.Fatalf("sample size %d want 500", res.SampleSize)
	}
	if res.EstimatedEpsilon > 0.5 {
		t.Fatalf("estimated ε %v exceeds request", res.EstimatedEpsilon)
	}
}

func TestTrainTightContractTrainsFinalModel(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 20000, Dim: 10, Seed: 4})
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{
		Epsilon: 0.02, Seed: 5, InitialSampleSize: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedInitialModel {
		t.Skip("initial model unexpectedly met ε=0.02; nothing to assert")
	}
	if res.SampleSize <= 300 {
		t.Fatalf("final sample %d should exceed n₀", res.SampleSize)
	}
	if len(res.Diag.Probes) == 0 {
		t.Fatal("sample size search left no probes")
	}
	if res.Diag.FinalTrain <= 0 {
		t.Fatal("final training time not recorded")
	}
}

// The headline guarantee: the returned model differs from a truly trained
// full model by at most ε on the holdout (checked on a deterministic seed;
// the statistical sweep lives in the experiments package).
func TestTrainMeetsContractAgainstFullModel(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 20000, Dim: 8, Seed: 6})
	spec := models.LogisticRegression{Reg: 0.01}
	opt := Options{Epsilon: 0.05, Seed: 7, InitialSampleSize: 400}
	env := NewEnv(ds, opt)
	res, err := env.TrainApproxContext(context.Background(), spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := env.TrainFull(spec, defaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	v := models.Diff(spec, res.Theta, full.Theta, env.Holdout())
	if v > opt.Epsilon {
		t.Fatalf("actual difference %v exceeds contract ε=%v (n=%d)", v, opt.Epsilon, res.SampleSize)
	}
}

func TestTrainPPCAEndToEnd(t *testing.T) {
	ds := datagen.MNIST(datagen.Config{Rows: 4000, Dim: 36, Seed: 8})
	spec := models.NewPPCA(4)
	res, err := TrainSourceContext(context.Background(), spec, ds, Options{Epsilon: 0.05, Seed: 9, InitialSampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Theta) != 36*4 {
		t.Fatalf("theta dim %d", len(res.Theta))
	}
	env := NewEnv(ds, Options{Epsilon: 0.05, Seed: 9})
	full, err := env.TrainFull(models.NewPPCA(4), defaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	if v := models.Diff(spec, res.Theta, full.Theta, env.Holdout()); v > 0.05 {
		t.Fatalf("PPCA actual diff %v exceeds ε", v)
	}
}

func TestTrainSmallPoolCollapsesToFullModel(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 600, Dim: 4, Seed: 10})
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{
		Epsilon: 0.01, Seed: 11, InitialSampleSize: 5000, // n₀ > N
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedInitialModel || res.EstimatedEpsilon != 0 {
		t.Fatalf("n₀ ≥ N should return the exact model: %+v", res)
	}
	if res.SampleSize != res.PoolSize {
		t.Fatalf("sample %d != pool %d", res.SampleSize, res.PoolSize)
	}
}

func TestTrainSparseHighDimensional(t *testing.T) {
	// d (800) > n₀ (300): exercises the Gram-side ObservedFisher path and
	// the lazy GradFactor end to end.
	ds := datagen.Criteo(datagen.Config{Rows: 9000, Dim: 800, Seed: 12})
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.001}, ds, Options{
		Epsilon: 0.1, Seed: 13, InitialSampleSize: 300, K: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.Rank > 300 {
		t.Fatalf("rank %d exceeds sample size", res.Diag.Rank)
	}
	if res.SampleSize < 300 {
		t.Fatalf("sample size %d below n₀", res.SampleSize)
	}
}

func TestDiagnosticsTotal(t *testing.T) {
	d := Diagnostics{InitialTrain: 1, Statistics: 2, SampleSearch: 3, FinalTrain: 4}
	if d.Total() != 10 {
		t.Fatalf("Total=%v", d.Total())
	}
}

func TestMethodString(t *testing.T) {
	if ObservedFisher.String() != "ObservedFisher" ||
		InverseGradients.String() != "InverseGradients" ||
		ClosedForm.String() != "ClosedForm" {
		t.Fatal("Method.String broken")
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method must still stringify")
	}
}

func TestTrainWithWarmStart(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 15000, Dim: 8, Seed: 14})
	res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{
		Epsilon: 0.02, Seed: 15, InitialSampleSize: 300, WarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Theta) != 8 {
		t.Fatalf("theta dim %d", len(res.Theta))
	}
}

func TestTrainAllMethodsEndToEnd(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 8000, Dim: 6, Seed: 16})
	for _, m := range []Method{ObservedFisher, InverseGradients, ClosedForm} {
		res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, Options{
			Epsilon: 0.05, Seed: 17, InitialSampleSize: 400, Method: m,
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Diag.Method != m {
			t.Fatalf("diag method %v want %v", res.Diag.Method, m)
		}
	}
}
