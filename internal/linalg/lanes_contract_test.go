package linalg_test

import (
	"context"
	"math"
	"math/rand"
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
// rank-4 update, the eigensolve and the class scores all run as lanes; for
// dense logistic regression through a real sample-size search, whose draws
// are scored a block at a time on the class lanes; on
// the Gram side (sparse logistic, d > n₀), where the eigensolve does; and
// through ClosedForm's eigendecomposition.
func TestContractsEqualWithLanesOff(t *testing.T) {
	if !linalg.HaveLanes() {
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
		{"logistic-dense-search", models.LogisticRegression{Reg: 0.001},
			datagen.Higgs(datagen.Config{Rows: 12000, Dim: 28, Seed: 8}),
			core.Options{Epsilon: 0.02, Seed: 9, InitialSampleSize: 500, K: 40}},
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
			t.Logf("n = %d of %d, ε₀ = %v, %d probes", on.SampleSize, on.PoolSize, on.Diag.InitialEpsilon, len(on.Diag.Probes))
			if c.name == "logistic-dense-search" && len(on.Diag.Probes) == 0 {
				t.Fatal("the contract ended before the search: its blocked draws and fused probes are not compared")
			}
			// ε̂ reads the class scores only through argmax, which a last-bit
			// change rarely flips; the scores themselves must be equal too.
			if sm, ok := c.spec.(models.ScoreModel); ok {
				ns := sm.NumScores(len(on.Theta), c.ds.Dim)
				var fp [2]uint64
				for i, lanes := range []bool{true, false} {
					out := make([]float64, c.ds.Len()*ns)
					restore := linalg.SetLanes(lanes)
					b := models.NewBlock(c.spec, len(on.Theta), c.ds)
					b.Vectors(1)
					b.Set(0, on.Theta)
					b.Scores([][]float64{out})
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

// One objective evaluation returns the same loss and gradient bits with the
// lane kernels on and off: the link kernel and the Axpy scatter under dense
// logistic rows, the link kernel under sparse ones, the Axpy scatter under
// max-entropy's dense rows — at θ = 0 (every link falls back to the scalar
// one), at a small θ, and at a θ that drives |z| past exp's underflow.
func TestObjectiveEqualWithLanesOff(t *testing.T) {
	if !linalg.HaveLanes() {
		t.Skip("no lane kernels on this CPU: both runs would be scalar")
	}
	prev := compute.Parallelism()
	compute.SetParallelism(1)
	defer compute.SetParallelism(prev)
	cases := []struct {
		name string
		spec models.Spec
		ds   *dataset.Dataset
	}{
		{"logistic-higgs-dense", models.LogisticRegression{Reg: 0.001}, datagen.Higgs(datagen.Config{Rows: 3000, Dim: 28, Seed: 8})},
		{"logistic-criteo-sparse", models.LogisticRegression{Reg: 0.001}, datagen.Criteo(datagen.Config{Rows: 3000, Dim: 2000, Seed: 9})},
		{"maxent-mnist-dense", models.MaxEntropy{Classes: 10, Reg: 0.001}, datagen.MNIST(datagen.Config{Rows: 2000, Dim: 40, Seed: 10})},
	}
	for _, c := range cases {
		dim := c.spec.ParamDim(c.ds)
		zero, small, huge := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		rng := rand.New(rand.NewSource(11))
		for j := range dim {
			small[j] = 0.05 * rng.NormFloat64()
			huge[j] = 2000 * rng.NormFloat64()
		}
		for _, th := range []struct {
			name  string
			theta []float64
		}{{"zero", zero}, {"small", small}, {"huge", huge}} {
			name, theta := th.name, th.theta
			t.Run(c.name+"/"+name, func(t *testing.T) {
				obj := models.Objective(c.spec, c.ds)
				var loss [2]float64
				var grad [2][]float64
				for i, on := range []bool{true, false} {
					grad[i] = make([]float64, dim)
					restore := linalg.SetLanes(on)
					loss[i] = obj.Eval(theta, grad[i])
					restore()
				}
				if math.Float64bits(loss[0]) != math.Float64bits(loss[1]) {
					t.Fatalf("loss %v (%#x) with lanes, %v (%#x) without", loss[0], math.Float64bits(loss[0]), loss[1], math.Float64bits(loss[1]))
				}
				if a, b := core.ThetaFingerprint(grad[0]), core.ThetaFingerprint(grad[1]); a != b {
					t.Fatalf("gradient %#x with lanes, %#x without", a, b)
				}
				if name == "huge" && c.spec.Name() == "logistic" && !hasPastUnderflow(theta, c.ds) {
					t.Fatal("the huge θ drives no |z| past 708")
				}
			})
		}
	}
}

// hasPastUnderflow reports whether some row's linear predictor has |z| > 708.
func hasPastUnderflow(theta []float64, ds *dataset.Dataset) bool {
	for _, x := range ds.X {
		if math.Abs(x.Dot(theta)) > 708 {
			return true
		}
	}
	return false
}
