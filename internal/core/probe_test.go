package core

import (
	"fmt"
	"math"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// probeCase is a trained ScoreModel with its factor and a holdout that
// spans more than one probe block (of any score-vector length) and leaves a
// partial one.
type probeCase struct {
	spec    models.Spec
	theta   []float64
	fac     Factor
	holdout *dataset.Dataset
	n0, n   int
}

func probeCases(t *testing.T) map[string]probeCase {
	t.Helper()
	cases := map[string]probeCase{}
	for name, c := range map[string]struct {
		spec models.Spec
		ds   *dataset.Dataset
	}{
		"linear":   {models.LinearRegression{Reg: 0.01}, datagen.Gas(datagen.Config{Rows: 900, Dim: 5, Seed: 1})},
		"logistic": {models.LogisticRegression{Reg: 0.01}, datagen.Higgs(datagen.Config{Rows: 900, Dim: 5, Seed: 1})},
		"poisson":  {models.PoissonRegression{Reg: 0.01}, datagen.Counts(datagen.Config{Rows: 900, Dim: 5, Seed: 1})},
		"maxent":   {models.MaxEntropy{Reg: 0.01}, datagen.MNIST(datagen.Config{Rows: 900, Dim: 6, Seed: 1})},
		// Sparse rows: each stored entry added into every column of a block.
		"logistic-sparse": {models.LogisticRegression{Reg: 0.01}, datagen.Criteo(datagen.Config{Rows: 900, Dim: 60, Seed: 1})},
		// Criteo's stored entries are all 1.0, and a class label rarely
		// moves with a score's last bit. Here the entries are normal draws
		// and v is a regression's, read off the scores' bits, so any other
		// order of a sparse row's terms shows.
		"linear-sparse": {models.LinearRegression{Reg: 0.01}, sparseFixture(t, dataset.Regression, 900, 60, 6, 0, 3)},
	} {
		const n0 = 400
		train, holdout := c.ds.Subset(seq(0, n0)), c.ds.Subset(seq(n0, n0+probeBlock+37))
		theta := trainOn(t, c.spec, train)
		st, err := ComputeStatistics(c.spec, train, theta, Options{Epsilon: 0.1}.WithDefaults())
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = probeCase{spec: c.spec, theta: theta, fac: st.Factor, holdout: holdout, n0: n0, n: 40000}
	}
	return cases
}

// perRowPairDiffs is Searcher.pairDiffs in its per-row formulation: every
// holdout score a per-row Dot, every prediction one call. A score vector is
// turned into its prediction by Predict itself, on the one-feature row {1}
// with the scores as parameters (θ_cᵀ·1 = s_c).
func perRowPairDiffs(c probeCase, zs [][]float64, n int) []float64 {
	a1, a2 := sqrt(Alpha(c.n0, n)), sqrt(Alpha(n, c.n))
	d := c.holdout.Dim
	ns := len(c.theta) / d
	one := dataset.DenseRow{1}
	w1, w2 := make([]float64, len(c.theta)), make([]float64, len(c.theta))
	scN, scNN := make([]float64, ns), make([]float64, ns)
	pa, pb := make([]float64, c.holdout.Len()), make([]float64, c.holdout.Len())
	vs := make([]float64, len(zs)/2)
	for i := range vs {
		applyOne(c.fac, zs[2*i], w1)
		applyOne(c.fac, zs[2*i+1], w2)
		for r, x := range c.holdout.X {
			for k := 0; k < ns; k++ {
				scN[k] = x.Dot(c.theta[k*d:(k+1)*d]) + a1*x.Dot(w1[k*d:(k+1)*d])
				scNN[k] = scN[k] + a2*x.Dot(w2[k*d:(k+1)*d])
			}
			pa[r], pb[r] = c.spec.Predict(scN, one), c.spec.Predict(scNN, one)
		}
		v := models.NewPredictionDiff(c.spec.Task())
		v.AddRows(pa, pb)
		vs[i] = v.Value()
	}
	return vs
}

// The block formulation of both estimators' probes — holdout scores of a
// block of draws per row from the class lanes (dense holdouts) or entry by
// entry into all of the block's columns (sparse ones), one batch PredictScores
// per block or a fused sign-flip count, batch predictions under the
// accuracy estimate — must produce the per-row formulation's vectors bit
// for bit, for every ScoreModel, at one pool chunk and at several, with the
// lane kernels on and off. k = 37 leaves a partial last block after several
// whole ones at every score-vector length.
func TestProbeVectorsBitIdenticalToPerRowFormulation(t *testing.T) {
	prev := compute.Parallelism()
	defer compute.SetParallelism(prev)
	const k = 37
	for name, c := range probeCases(t) {
		per := models.BlockDraws(c.spec, len(c.theta), c.holdout)
		if per < 1 || k <= per {
			t.Fatalf("%s: %d draws per block", name, per)
		}
		// check compares both estimators' vectors at the current degree and
		// lane setting.
		check := func(t *testing.T) {
			zs := drawNormals(stat.NewRNG(7), 2*k, c.fac.Rank())
			s := newSearcher(c.spec, c.theta, c.fac, c.n0, c.n, c.holdout, zs)
			if s.scoreModel == nil {
				t.Fatal("score fast path not taken")
			}
			moved := false
			for _, n := range []int{c.n0, c.n0 + 1, 3000, c.n - 1} {
				got, want := s.pairDiffs(n), perRowPairDiffs(c, zs, n)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("pairDiffs(%d)[%d] = %v, per-row formulation %v", n, i, got[i], want[i])
					}
					moved = moved || want[i] != 0
				}
			}
			if !moved {
				t.Error("every pair difference is 0: the comparison shows nothing")
			}

			alpha := Alpha(c.n0, c.n)
			got := accuracyDiffs(c.spec, c.theta, c.fac, alpha, c.holdout, k, stat.NewRNG(9))
			// hideScores leaves only Predict, one row at a time.
			want := accuracyDiffs(hideScores{c.spec}, c.theta, c.fac, alpha, c.holdout, k, stat.NewRNG(9))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("accuracyDiffs[%d] = %v, per-row formulation %v", i, got[i], want[i])
				}
			}
		}
		for _, degree := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/degree=%d", name, degree), func(t *testing.T) {
				compute.SetParallelism(degree)
				check(t)
				t.Run("lanes=off", func(t *testing.T) {
					defer linalg.SetLanes(false)()
					check(t)
				})
			})
		}
	}
}
