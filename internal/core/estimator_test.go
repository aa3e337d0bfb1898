package core

import (
	"math"
	"sync/atomic"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// hideScores wraps a Spec so the dynamic type no longer satisfies
// models.ScoreModel, forcing the generic Sample Size Estimator path.
type hideScores struct{ models.Spec }

// countPredicts counts Predict calls; embedding the interface also hides
// ScoreModel, so every prediction goes through Predict.
type countPredicts struct {
	models.Spec
	calls *atomic.Int64
}

func (c countPredicts) Predict(theta []float64, x dataset.Row) float64 {
	c.calls.Add(1)
	return c.Spec.Predict(theta, x)
}

// The Model Accuracy Estimator compares one trained model against k sampled
// ones, so m_n's holdout predictions are computed once, not once per draw:
// (k+1)·h Predict calls for k draws on h holdout rows. The bound itself must
// be, bit for bit, the Lemma-2 quantile of models.Diff over the same draws.
func TestEstimateAccuracyPredictsTrainedModelOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec models.Spec
		ds   *dataset.Dataset
	}{
		{"classification", models.LogisticRegression{Reg: 0.01}, datagen.Higgs(datagen.Config{Rows: 600, Dim: 5, Seed: 1})},
		{"regression", models.LinearRegression{Reg: 0.01}, datagen.Gas(datagen.Config{Rows: 600, Dim: 5, Seed: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, holdout := tc.ds.Subset(seq(0, 400)), tc.ds.Subset(seq(400, 600))
			theta := trainOn(t, tc.spec, train)
			st, err := ComputeStatistics(tc.spec, train, theta, Options{Epsilon: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			const k, delta, seed = 30, 0.05, 9
			alpha := Alpha(400, 40000)
			counted := countPredicts{Spec: tc.spec, calls: new(atomic.Int64)}
			got := EstimateAccuracy(counted, theta, st.Factor, alpha, holdout, k, delta, stat.NewRNG(seed)).Epsilon
			if calls, want := counted.calls.Load(), int64((k+1)*holdout.Len()); calls != want {
				t.Errorf("%d Predict calls for k=%d draws on %d holdout rows, want (k+1)·h = %d", calls, k, holdout.Len(), want)
			}

			rng := stat.NewRNG(seed)
			vs := make([]float64, k)
			z, w, thetaN := make([]float64, st.Factor.Rank()), make([]float64, len(theta)), make([]float64, len(theta))
			for i := range vs {
				rng.NormVec(z)
				applyOne(st.Factor, z, w)
				for j := range thetaN {
					thetaN[j] = theta[j] + sqrt(alpha)*w[j]
				}
				vs[i] = models.Diff(tc.spec, theta, thetaN, holdout)
			}
			if want := stat.ConservativeQuantile(vs, delta); math.Float64bits(got) != math.Float64bits(want) || want == 0 {
				t.Errorf("Epsilon = %v, ConservativeQuantile over models.Diff of the same draws = %v (want equal bits, non-zero)", got, want)
			}
		})
	}
}

// seq returns lo, lo+1, …, hi−1.
func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestEstimateAccuracyZeroAlpha(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 400, Dim: 5, Seed: 1})
	spec := models.LogisticRegression{Reg: 0.01}
	theta := trainOn(t, spec, ds)
	st, err := ComputeStatistics(spec, ds, theta, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateAccuracy(spec, theta, st.Factor, 0, ds, 20, 0.05, stat.NewRNG(1))
	if est.Epsilon != 0 {
		t.Fatalf("alpha=0 must give epsilon 0, got %v", est.Epsilon)
	}
}

// The accuracy bound should shrink as the (hypothetical) training sample
// grows: ε(n=500) ≥ ε(n=5000).
func TestEstimateAccuracyShrinksWithSampleSize(t *testing.T) {
	pool := datagen.Higgs(datagen.Config{Rows: 20000, Dim: 6, Seed: 2})
	env := NewEnv(pool, Options{Epsilon: 0.1, Seed: 3})
	spec := models.LogisticRegression{Reg: 0.01}
	sample, err := env.TrainOnSample(spec, 800, 7, defaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStatistics(spec, poolOf(t, env), sample.Theta, Options{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	N := env.PoolLen()
	epsSmall := EstimateAccuracy(spec, sample.Theta, st.Factor, Alpha(500, N), env.Holdout(), 100, 0.05, stat.NewRNG(4)).Epsilon
	epsBig := EstimateAccuracy(spec, sample.Theta, st.Factor, Alpha(5000, N), env.Holdout(), 100, 0.05, stat.NewRNG(4)).Epsilon
	if epsBig > epsSmall {
		t.Fatalf("bound must shrink with n: ε(500)=%v < ε(5000)=%v", epsSmall, epsBig)
	}
}

// End-to-end guarantee check (Lemma 2 + Corollary 1): the estimated bound
// must cover the actual difference from a truly trained full model in the
// vast majority of seeded trials.
func TestAccuracyGuaranteeAgainstTrueFullModel(t *testing.T) {
	if testing.Short() {
		t.Skip("guarantee validation skipped in -short mode")
	}
	pool := datagen.Higgs(datagen.Config{Rows: 15000, Dim: 8, Seed: 5})
	spec := models.LogisticRegression{Reg: 0.01}
	env := NewEnv(pool, Options{Epsilon: 0.1, Seed: 6})
	n := 700
	violations, trials := 0, 12
	var fullTheta []float64
	for seed := int64(0); seed < int64(trials); seed++ {
		approx, err := env.TrainOnSample(spec, n, 100+seed, defaultOptim())
		if err != nil {
			t.Fatal(err)
		}
		sampleStats, err := ComputeStatistics(spec, poolOf(t, env), approx.Theta, Options{Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateAccuracy(spec, approx.Theta, sampleStats.Factor, Alpha(n, env.PoolLen()), env.Holdout(), 150, 0.05, stat.NewRNG(200+seed))
		// The first trial exercises the full production path (ValidateGuarantee
		// trains the ground-truth model); later trials amortize that one full
		// training through CheckGuarantee — the same comparison the runtime
		// auditor runs, so test and production cannot drift.
		var rep GuaranteeReport
		if fullTheta == nil {
			rep, err = ValidateGuarantee(env, spec, &Result{Theta: approx.Theta, EstimatedEpsilon: est.Epsilon}, defaultOptim())
			if err != nil {
				t.Fatal(err)
			}
			fullTheta = rep.FullTheta
		} else {
			rep = CheckGuarantee(spec, approx.Theta, fullTheta, est.Epsilon, env.Holdout())
		}
		if !rep.Satisfied {
			violations++
		}
	}
	// δ=0.05 tolerates ~5% violations; allow up to 2/12 for Monte-Carlo
	// noise in this small trial count.
	if violations > 2 {
		t.Fatalf("guarantee violated in %d/%d trials", violations, trials)
	}
}

// Theorem 2: the probability of satisfying the bound is increasing in n, so
// probe fractions along an increasing n schedule must be non-decreasing (up
// to small sampling wobble).
func TestSearcherMonotonicity(t *testing.T) {
	pool := datagen.Criteo(datagen.Config{Rows: 12000, Dim: 400, Seed: 7})
	spec := models.LogisticRegression{Reg: 0.001}
	env := NewEnv(pool, Options{Epsilon: 0.05, Seed: 8})
	opt := Options{Epsilon: 0.05, Seed: 8}.WithDefaults()
	n0 := 500
	approx, err := env.TrainOnSample(spec, n0, 9, defaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	sample := poolOf(t, env).Subset(make([]int, 0)) // placeholder, stats need the sample
	_ = sample
	st, err := ComputeStatistics(spec, poolOf(t, env).Subset(firstK(env.PoolLen(), n0)), approx.Theta, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(spec, approx.Theta, st.Factor, n0, env.PoolLen(), env.Holdout(), 0.05, 0.05, 100, stat.NewRNG(10))
	prev := -1.0
	for _, n := range []int{n0, 2 * n0, 4 * n0, 8 * n0, env.PoolLen()} {
		p := s.Probe(n)
		if p.Fraction < prev-0.1 {
			t.Fatalf("fraction dropped from %v to %v at n=%d", prev, p.Fraction, n)
		}
		if p.Fraction > prev {
			prev = p.Fraction
		}
	}
	if last := s.Probe(env.PoolLen()); !last.Satisfied || last.Fraction != 1 {
		t.Fatalf("probe at N must be trivially satisfied: %+v", last)
	}
}

func firstK(n, k int) []int {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// The search result must itself satisfy the probe criterion and be minimal
// up to binary-search granularity.
func TestSearcherFindsSatisfyingSize(t *testing.T) {
	pool := datagen.Higgs(datagen.Config{Rows: 16000, Dim: 10, Seed: 11})
	spec := models.LogisticRegression{Reg: 0.01}
	env := NewEnv(pool, Options{Epsilon: 0.03, Seed: 12})
	n0 := 400
	approx, err := env.TrainOnSample(spec, n0, 13, defaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStatistics(spec, poolOf(t, env).Subset(firstK(env.PoolLen(), n0)), approx.Theta, Options{Epsilon: 0.03}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(spec, approx.Theta, st.Factor, n0, env.PoolLen(), env.Holdout(), 0.03, 0.05, 100, stat.NewRNG(14))
	res := s.Search()
	if res.N < n0 || res.N > env.PoolLen() {
		t.Fatalf("chosen n=%d outside [%d, %d]", res.N, n0, env.PoolLen())
	}
	if !s.Probe(res.N).Satisfied {
		t.Fatalf("chosen n=%d does not satisfy its own probe", res.N)
	}
	if len(res.Probes) == 0 {
		t.Fatal("no probes recorded")
	}
}

// The linear-score fast path and the generic path must agree.
func TestSearcherScorePathMatchesGeneric(t *testing.T) {
	pool := datagen.Higgs(datagen.Config{Rows: 8000, Dim: 7, Seed: 15})
	spec := models.LogisticRegression{Reg: 0.01}
	env := NewEnv(pool, Options{Epsilon: 0.05, Seed: 16})
	n0 := 400
	approx, err := env.TrainOnSample(spec, n0, 17, defaultOptim())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ComputeStatistics(spec, poolOf(t, env).Subset(firstK(env.PoolLen(), n0)), approx.Theta, Options{Epsilon: 0.05}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	fast := NewSearcher(spec, approx.Theta, st.Factor, n0, env.PoolLen(), env.Holdout(), 0.05, 0.05, 80, stat.NewRNG(18))
	slow := NewSearcher(hideScores{spec}, approx.Theta, st.Factor, n0, env.PoolLen(), env.Holdout(), 0.05, 0.05, 80, stat.NewRNG(18))
	if fast.scoreModel == nil {
		t.Fatal("fast searcher did not take the score path")
	}
	if slow.scoreModel != nil {
		t.Fatal("hideScores failed to force the generic path")
	}
	for _, n := range []int{n0, 3 * n0, 10 * n0} {
		pf := fast.Probe(n)
		ps := slow.Probe(n)
		if math.Abs(pf.Fraction-ps.Fraction) > 0.05 {
			t.Fatalf("n=%d: fast fraction %v, generic %v", n, pf.Fraction, ps.Fraction)
		}
	}
}
