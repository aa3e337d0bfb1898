package linalg_test

import (
	"context"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
)

// A whole contract returns the same n, θ and ε̂ with the lane kernels on
// and off: on the covariance side (max-entropy, dense, d ≤ n₀), where J's
// rank-4 update, the eigensolve and the class scores all run as lanes; on
// the Gram side (sparse logistic, d > n₀), where the eigensolve does; and
// through ClosedForm's eigendecomposition.
func TestContractsEqualWithLanesOff(t *testing.T) {
	if !linalg.Lanes() {
		t.Skip("no lane kernels on this CPU: both runs would be scalar")
	}
	prev := compute.Parallelism()
	compute.SetParallelism(1)
	defer compute.SetParallelism(prev)
	cases := []struct {
		name string
		spec models.Spec
		ds   *dataset.Dataset
		opt  core.Options
	}{
		{"maxent-covariance", models.MaxEntropy{Classes: 10, Reg: 0.001},
			datagen.MNIST(datagen.Config{Rows: 4000, Dim: 20, Seed: 2}),
			core.Options{Epsilon: 0.05, Seed: 3, InitialSampleSize: 400, K: 40}},
		{"logistic-sparse-gram", models.LogisticRegression{Reg: 0.001},
			datagen.Criteo(datagen.Config{Rows: 3000, Dim: 2000, Seed: 4}),
			core.Options{Epsilon: 0.05, Seed: 5, InitialSampleSize: 200, K: 40}},
		{"linear-closedform", models.LinearRegression{Reg: 0.001},
			datagen.Gas(datagen.Config{Rows: 3000, Dim: 24, Seed: 6}),
			core.Options{Epsilon: 0.02, Seed: 7, InitialSampleSize: 300, K: 40, Method: core.ClosedForm}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var runs [2]*core.Result
			for i, on := range []bool{true, false} {
				restore := linalg.SetLanes(on)
				r, err := core.TrainSourceContext(context.Background(), c.spec, c.ds, c.opt)
				restore()
				if err != nil {
					t.Fatalf("lanes %v: %v", on, err)
				}
				runs[i] = r
			}
			on, off := runs[0], runs[1]
			if on.SampleSize != off.SampleSize ||
				core.ThetaFingerprint(on.Theta) != core.ThetaFingerprint(off.Theta) ||
				on.EstimatedEpsilon != off.EstimatedEpsilon ||
				on.Diag.InitialEpsilon != off.Diag.InitialEpsilon {
				t.Fatalf("lanes on: n = %d θ = %#x ε̂ = %v ε₀ = %v; off: n = %d θ = %#x ε̂ = %v ε₀ = %v",
					on.SampleSize, core.ThetaFingerprint(on.Theta), on.EstimatedEpsilon, on.Diag.InitialEpsilon,
					off.SampleSize, core.ThetaFingerprint(off.Theta), off.EstimatedEpsilon, off.Diag.InitialEpsilon)
			}
			t.Logf("n = %d of %d, ε₀ = %v", on.SampleSize, on.PoolSize, on.Diag.InitialEpsilon)
			// ε̂ reads the class scores only through argmax, which a last-bit
			// change rarely flips; the scores themselves must be equal too.
			if sm, ok := c.spec.(models.ScoreModel); ok {
				ns := sm.NumScores(len(on.Theta), c.ds.Dim)
				var fp [2]uint64
				for i, lanes := range []bool{true, false} {
					out := make([]float64, c.ds.Len()*ns)
					restore := linalg.SetLanes(lanes)
					models.Scores(on.Theta, c.ds.X, ns, out)
					restore()
					fp[i] = core.ThetaFingerprint(out)
				}
				if fp[0] != fp[1] {
					t.Fatalf("scores of the %d rows: %#x with lanes, %#x without", c.ds.Len(), fp[0], fp[1])
				}
			}
		})
	}
}
