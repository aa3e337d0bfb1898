package core

import (
	"context"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
	"blinkml/internal/stat"
)

// Ablation benchmarks for the paper's optimizations: the linear-score fast
// path in the Sample Size Estimator and the sampling-by-scaling reuse of
// factor draws (§4.3), and the Gram-side vs covariance-side ObservedFisher
// paths (§3.4's O(min(n²d, nd²)) bound).

func benchSearcherSetup(b *testing.B, hide bool) *Searcher {
	b.Helper()
	ds := datagen.Criteo(datagen.Config{Rows: 20000, Dim: 500, Seed: 1})
	var spec models.Spec = models.LogisticRegression{Reg: 0.001}
	env := NewEnv(ds, Options{Epsilon: 0.05, Seed: 2})
	n0 := 500
	rng := stat.NewRNG(3)
	sample := poolOf(b, env).Subset(dataset.SampleWithoutReplacement(rng, env.PoolLen(), n0))
	fit, err := models.Train(spec, sample, nil, optimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := ComputeStatistics(spec, sample, fit.Theta, Options{Epsilon: 0.05}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	if hide {
		spec = hideScores{spec}
	}
	return NewSearcher(spec, fit.Theta, st.Factor, n0, env.PoolLen(), env.Holdout(), 0.05, 0.05, 100, stat.NewRNG(4))
}

// drawShape is one benchmark workload's shape for the estimators' draws;
// its data is generated when a benchmark runs, not at package init.
type drawShape struct {
	name string
	spec models.Spec
	data func() *dataset.Dataset
}

// drawShapes are the benchmark workloads' shapes for the estimators' draws:
// a 2000-row dense holdout under a single-score classifier and under the
// ten-class max-entropy model.
var drawShapes = []drawShape{
	{"logistic-28", models.LogisticRegression{Reg: 0.001}, func() *dataset.Dataset {
		return datagen.Higgs(datagen.Config{Rows: 24000, Dim: 28, Seed: 1})
	}},
	{"maxent-40x10", models.MaxEntropy{Reg: 0.001, Classes: 10}, func() *dataset.Dataset {
		return datagen.MNIST(datagen.Config{Rows: 24000, Dim: 40, Seed: 1})
	}},
}

// sparseDrawShape is lr-sparse-store's: a 2000-row one-hot Criteo holdout
// at d = 10⁴, whose draws a Block scores entry by entry.
var sparseDrawShape = drawShape{"criteo-sparse-10000", models.LogisticRegression{Reg: 0.001}, func() *dataset.Dataset {
	return datagen.Criteo(datagen.Config{Rows: 24000, Dim: 10000, Seed: 1})
}}

// drawSetup trains m₀ on n₀ = 1000 rows of ds and returns it with its
// factor and the environment (whose holdout has 2000 rows).
func drawSetup(b *testing.B, spec models.Spec, ds *dataset.Dataset) (*Env, []float64, Factor) {
	b.Helper()
	opt := Options{Epsilon: 0.05, Seed: 2, InitialSampleSize: 1000}.WithDefaults()
	env := NewEnv(ds, opt)
	sample, err := env.Sample(stat.NewRNG(3), opt.InitialSampleSize)
	if err != nil {
		b.Fatal(err)
	}
	fit, err := models.Train(spec, sample, nil, optimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := ComputeStatistics(spec, sample, fit.Theta, opt)
	if err != nil {
		b.Fatal(err)
	}
	if h := env.Holdout().Len(); h != 2000 {
		b.Fatalf("holdout has %d rows, want 2000", h)
	}
	return env, fit.Theta, st.Factor
}

// BenchmarkProbe times one Sample Size Estimator probe at the benchmark
// workloads' shape — k = 100 sampled pairs on a 2000-row dense holdout — for
// a single-score classifier (the probe is a sign-flip count) and for the
// ten-class max-entropy model (an argmax per row and model).
func BenchmarkProbe(b *testing.B) {
	for _, c := range drawShapes {
		b.Run(c.name, func(b *testing.B) {
			env, theta, fac := drawSetup(b, c.spec, c.data())
			s := NewSearcher(c.spec, theta, fac, 1000, env.PoolLen(), env.Holdout(), 0.05, 0.05, 100, stat.NewRNG(4))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Probe(2000 + i%3)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*100*2000), "ns/row-pair")
		})
	}
}

// BenchmarkAccuracyDraws times the accuracy estimate's k = 100 draws at the
// same shapes and at lr-sparse-store's: drawing θ_N,i, scoring it on the
// 2000-row holdout and comparing its predictions with m₀'s.
func BenchmarkAccuracyDraws(b *testing.B) {
	for _, c := range append(drawShapes[:len(drawShapes):len(drawShapes)], sparseDrawShape) {
		b.Run(c.name, func(b *testing.B) {
			env, theta, fac := drawSetup(b, c.spec, c.data())
			alpha := Alpha(1000, env.PoolLen())
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				accuracyDiffs(c.spec, theta, fac, alpha, env.Holdout(), 100, stat.NewRNG(4))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*100*2000), "ns/row-draw")
		})
	}
}

// BenchmarkAblationProbeScorePath measures one SSE probe with the
// precomputed-score fast path.
func BenchmarkAblationProbeScorePath(b *testing.B) {
	s := benchSearcherSetup(b, false)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Probe(2000 + i%3)
	}
}

// BenchmarkAblationProbeGenericPath measures the same probe without the
// fast path (materialized parameter vectors + full Diff per pair).
func BenchmarkAblationProbeGenericPath(b *testing.B) {
	s := benchSearcherSetup(b, true)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Probe(2000 + i%3)
	}
}

// BenchmarkAblationSamplingByScaling measures drawing k parameter samples
// by rescaling pre-applied factor draws (the §4.3 optimization)...
func BenchmarkAblationSamplingByScaling(b *testing.B) {
	s := benchSearcherSetup(b, true)
	d := len(s.theta0)
	theta := make([]float64, d)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a1 := sqrt(Alpha(s.n0, 4000))
		for k := 0; k < s.k; k++ {
			for j := 0; j < d; j++ {
				theta[j] = s.theta0[j] + a1*s.w1[k][j]
			}
		}
	}
}

// ...versus re-invoking the factor for every draw (what a naive sampler
// would do for each candidate n).
func BenchmarkAblationSamplingNaive(b *testing.B) {
	ds := datagen.Criteo(datagen.Config{Rows: 20000, Dim: 500, Seed: 1})
	spec := models.LogisticRegression{Reg: 0.001}
	env := NewEnv(ds, Options{Epsilon: 0.05, Seed: 2})
	rng := stat.NewRNG(3)
	n0 := 500
	sample := poolOf(b, env).Subset(dataset.SampleWithoutReplacement(rng, env.PoolLen(), n0))
	fit, err := models.Train(spec, sample, nil, optimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := ComputeStatistics(spec, sample, fit.Theta, Options{Epsilon: 0.05}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	d := len(fit.Theta)
	theta := make([]float64, d)
	z := make([]float64, st.Factor.Rank())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a1 := sqrt(Alpha(n0, 4000))
		for k := 0; k < 100; k++ {
			rng.NormVec(z)
			st.Factor.Apply(z, theta)
			for j := range theta {
				theta[j] = fit.Theta[j] + a1*theta[j]
			}
		}
	}
}

// BenchmarkAblationFisherGramSide and ...CovarianceSide compare the two
// ObservedFisher paths on the same statistics problem (d ≈ n, where either
// side is feasible). The covariance side makes its gradient rows as it
// folds them in, so its time includes the grads pass the Gram side is
// handed precomputed.
func benchFisherRows(b *testing.B) (models.Spec, *dataset.Dataset, []float64, []dataset.Row, []float64) {
	b.Helper()
	ds := datagen.Higgs(datagen.Config{Rows: 400, Dim: 40, Seed: 5})
	spec := models.LogisticRegression{Reg: 0.01}
	fit, err := models.Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rows := models.PerExampleGradRows(spec, ds, fit.Theta)
	mean := make([]float64, len(fit.Theta))
	for _, r := range rows {
		r.AddTo(mean, 1)
	}
	for i := range mean {
		mean[i] /= float64(len(rows))
	}
	return spec, ds, fit.Theta, rows, mean
}

func BenchmarkAblationFisherCovarianceSide(b *testing.B) {
	spec, ds, theta, _, _ := benchFisherRows(b)
	opt := Options{Epsilon: 0.05}.WithDefaults()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fisherCovarianceSide(spec, ds, theta, 0.01, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFisherGramSide(b *testing.B) {
	_, _, theta, rows, mean := benchFisherRows(b)
	opt := Options{Epsilon: 0.05}.WithDefaults()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fisherGramSide(rows, mean, len(theta), len(rows), 0.01, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinatorEndToEnd times one full BlinkML run (all four
// phases) on a mid-size sparse workload.
func BenchmarkCoordinatorEndToEnd(b *testing.B) {
	ds := datagen.Criteo(datagen.Config{Rows: 20000, Dim: 500, Seed: 6})
	spec := models.LogisticRegression{Reg: 0.001}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSourceContext(context.Background(), spec, ds, Options{Epsilon: 0.05, Seed: int64(i), InitialSampleSize: 500, K: 60}); err != nil {
			b.Fatal(err)
		}
	}
}
