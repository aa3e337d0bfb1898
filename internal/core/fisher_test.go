package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
)

// The ObservedFisher formulation the streamed covariance side and the
// in-place eigensolves replaced, kept as the bit-for-bit reference: every
// gradient row materialised (PerExampleGradRows), folded into a full d x d J
// one outer product at a time (addOuterRow), eigendecomposed by NewSymEig
// and cut to the factor with eigenvectors read from columns.

// refMean is Σ qᵢ / n, added serially in row order.
func refMean(rows []dataset.Row, d int) []float64 {
	mean := make([]float64, d)
	for _, r := range rows {
		r.AddTo(mean, 1)
	}
	linalg.Scale(1/float64(len(rows)), mean)
	return mean
}

// refScaledEigvecs is scaledEigvecs over NewSymEig's column eigenvectors.
func refScaledEigvecs(eig *linalg.SymEig, relTol float64, scale func(lam float64) float64) *linalg.Dense {
	n := len(eig.Values)
	cut := relTol * relTol * math.Max(eig.Values[0], 0)
	rank := 0
	for rank < n && eig.Values[rank] > cut && eig.Values[rank] > 0 {
		rank++
	}
	c := make([]float64, rank)
	for j := range c {
		c[j] = scale(eig.Values[j])
	}
	out := linalg.NewDense(n, rank)
	for i := 0; i < n; i++ {
		dst, vec := out.Row(i), eig.Vectors.Row(i)
		for j, cj := range c {
			dst[j] = cj * vec[j]
		}
	}
	return out
}

// refCovarianceSide is the covariance-side L at degree 1.
func refCovarianceSide(t *testing.T, spec models.Spec, ds *dataset.Dataset, theta []float64, relTol float64) *linalg.Dense {
	t.Helper()
	rows := models.PerExampleGradRows(spec, ds, theta)
	n, d := len(rows), len(theta)
	mean := refMean(rows, d)
	j := linalg.NewDense(d, d)
	for _, r := range rows {
		addOuterRow(j, r)
	}
	j.ScaleInPlace(1 / float64(n))
	j.OuterAdd(-1, mean, mean)
	j.Symmetrize()
	eig, err := linalg.NewSymEig(j)
	if err != nil {
		t.Fatal(err)
	}
	beta := spec.Beta()
	return refScaledEigvecs(eig, relTol, func(mu float64) float64 { return math.Sqrt(mu) / (mu + beta) })
}

// refGramSide is the Gram-side M at degree 1.
func refGramSide(t *testing.T, spec models.Spec, ds *dataset.Dataset, theta []float64, relTol float64) *linalg.Dense {
	t.Helper()
	rows := models.PerExampleGradRows(spec, ds, theta)
	n, d := len(rows), len(theta)
	mean := refMean(rows, d)
	a := make([]float64, n)
	for i, r := range rows {
		a[i] = r.Dot(mean)
	}
	mbar := linalg.Dot(mean, mean)
	g := linalg.NewDense(n, n)
	scratch := make([]float64, d)
	for i := 0; i < n; i++ {
		rows[i].AddTo(scratch, 1)
		for jj := i; jj < n; jj++ {
			g.Set(i, jj, rows[jj].Dot(scratch)-a[i]-a[jj]+mbar)
		}
		rows[i].AddTo(scratch, -1)
	}
	g.MirrorUpper()
	eig, err := linalg.NewSymEig(g)
	if err != nil {
		t.Fatal(err)
	}
	beta, sqrtN := spec.Beta(), math.Sqrt(float64(n))
	return refScaledEigvecs(eig, relTol, func(lam float64) float64 {
		mu := lam / float64(n)
		if beta == 0 && mu <= 0 {
			return 0
		}
		return 1 / (sqrtN * (mu + beta))
	})
}

func requireSameBits(t *testing.T, what string, got, want *linalg.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, the reference %dx%d (the columns are the rank)", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %#x, the reference %#x", what, i, math.Float64bits(got.Data[i]), math.Float64bits(v))
		}
	}
}

// atDegreeOne pins the compute pool to the serial order for the test.
func atDegreeOne(t testing.TB) {
	t.Helper()
	prev := compute.Parallelism()
	compute.SetParallelism(1)
	t.Cleanup(func() { compute.SetParallelism(prev) })
}

// TestStreamedCovarianceSideBitIdentical: the streamed covariance side's L
// and rank are the reference's bits for every model class, on dense data
// with no zeros (Higgs, Gas, Counts, MNIST's strokes) and on a densified
// sparse fixture whose many zero coefficients take the rank-k kernel's
// skip paths. Any reordered add fails it.
func TestStreamedCovarianceSideBitIdentical(t *testing.T) {
	atDegreeOne(t)
	fixture := func(task dataset.Task, classes int) *dataset.Dataset {
		return densified(sparseFixture(t, task, 400, 60, 6, classes, 9))
	}
	cases := []struct {
		name string
		spec models.Spec
		ds   *dataset.Dataset
	}{
		{"linear-gas", models.LinearRegression{Reg: 0.001}, datagen.Gas(datagen.Config{Rows: 300, Dim: 9, Seed: 1})},
		{"linear-fixture", models.LinearRegression{Reg: 0.001}, fixture(dataset.Regression, 0)},
		{"logistic-higgs", models.LogisticRegression{Reg: 0.001}, datagen.Higgs(datagen.Config{Rows: 300, Dim: 28, Seed: 2})},
		{"logistic-fixture", models.LogisticRegression{Reg: 0}, fixture(dataset.BinaryClassification, 0)},
		{"poisson-counts", models.PoissonRegression{Reg: 0.001}, datagen.Counts(datagen.Config{Rows: 300, Dim: 11, Seed: 3})},
		{"poisson-fixture", models.PoissonRegression{Reg: 0.001}, fixture(dataset.Regression, 0)},
		{"maxent-mnist", models.MaxEntropy{Classes: 10, Reg: 0.001}, datagen.MNIST(datagen.Config{Rows: 400, Dim: 30, Seed: 4})},
		{"maxent-fixture", models.MaxEntropy{Classes: 3, Reg: 0.001}, fixture(dataset.MultiClassification, 3)},
		{"ppca-fixture", models.NewPPCA(3), fixture(dataset.Unsupervised, 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			theta := trainOn(t, c.spec, c.ds)
			if len(theta) > c.ds.Len() || dataset.SparsePath(c.ds.X) {
				t.Fatalf("d = %d, n = %d: not the dense covariance side", len(theta), c.ds.Len())
			}
			opt := Options{Epsilon: 0.05}.WithDefaults()
			st, err := ComputeStatistics(c.spec, c.ds, theta, opt)
			if err != nil {
				t.Fatal(err)
			}
			l := st.Factor.(*DenseFactor).L
			requireSameBits(t, "L", l, refCovarianceSide(t, c.spec, c.ds, theta, opt.SVDRelTol))
			if st.Rank != l.Cols {
				t.Fatalf("Rank %d, L has %d columns", st.Rank, l.Cols)
			}
		})
	}
}

// TestInPlaceGramSideBitIdentical: the Gram side, eigensolved in place and
// read by rows, gives the reference's M on the sparse fixture (d > n).
func TestInPlaceGramSideBitIdentical(t *testing.T) {
	atDegreeOne(t)
	for _, c := range []struct {
		name    string
		spec    models.Spec
		task    dataset.Task
		classes int
	}{
		{"logistic", models.LogisticRegression{Reg: 0.01}, dataset.BinaryClassification, 0},
		{"maxent", models.MaxEntropy{Classes: 3, Reg: 0.001}, dataset.MultiClassification, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds := sparseFixture(t, c.task, 150, 400, 8, c.classes, 5)
			theta := make([]float64, c.spec.ParamDim(ds))
			for i := range theta {
				theta[i] = 0.05 * float64(i%7-3)
			}
			opt := Options{Epsilon: 0.05}.WithDefaults()
			st, err := ComputeStatistics(c.spec, ds, theta, opt)
			if err != nil {
				t.Fatal(err)
			}
			gf, ok := st.Factor.(*GradFactor)
			if !ok {
				t.Fatalf("expected the Gram-side factor, got %T", st.Factor)
			}
			requireSameBits(t, "M", gf.m, refGramSide(t, c.spec, ds, theta, opt.SVDRelTol))
		})
	}
}

// A feature of magnitude 1e160 squares past the float range, so J holds
// Inf: the contract must fail with ErrNonFiniteFisher, not panic in the
// eigensolver. At 1e150 the products stay finite and it trains.
func TestNonFiniteFisherIsAnError(t *testing.T) {
	for _, c := range []struct {
		scale float64
		fails bool
	}{{1e160, true}, {1e150, false}} {
		t.Run(fmt.Sprint(c.scale), func(t *testing.T) {
			ds := datagen.Higgs(datagen.Config{Rows: 4000, Dim: 6, Seed: 3})
			for _, r := range ds.X {
				r.(dataset.DenseRow)[0] *= c.scale
			}
			_, err := TrainSourceContext(context.Background(), models.LogisticRegression{}, ds, Options{Epsilon: 0.05, InitialSampleSize: 500})
			if c.fails && !errors.Is(err, ErrNonFiniteFisher) {
				t.Fatalf("err = %v, want ErrNonFiniteFisher", err)
			}
			if !c.fails && err != nil {
				t.Fatal(err)
			}
		})
	}
}

// One NaN feature in a sampled row makes the training objective NaN at
// every θ, so the solver stops at its start. A contract whose initial or
// final sample holds that row must fail, never return θ = 0 as a model:
// seeds 4, 6 and 11 returned [0 0 0 0 0] with a nil error before the
// objective check, seeds 3, 7, 9 and 10 failed in statistics.
func TestNonFiniteFeatureFailsTheContract(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 5000, Dim: 5, Seed: 1})
	ds.X[17].(dataset.DenseRow)[2] = math.NaN()
	for _, seed := range []int64{3, 4, 6, 7, 9, 10, 11} {
		res, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.001}, ds, Options{Epsilon: 0.05, Seed: seed})
		if err == nil {
			t.Fatalf("seed %d: trained θ = %v with a NaN feature in the sample", seed, res.Theta)
		}
		if silent := seed == 4 || seed == 6 || seed == 11; silent && !errors.Is(err, models.ErrNonFiniteObjective) {
			t.Fatalf("seed %d: err = %v, want models.ErrNonFiniteObjective", seed, err)
		}
	}
}

// A model with no parameters (a hand-built dataset with no features) has
// no statistics to compute: an error, not an index panic. (n₀ < N, so the
// contract reaches the statistics phase.)
func TestZeroFeatureDatasetIsAnError(t *testing.T) {
	ds := &dataset.Dataset{Task: dataset.BinaryClassification, Name: "no-features"}
	for i := 0; i < 4; i++ {
		ds.X = append(ds.X, dataset.DenseRow{})
		ds.Y = append(ds.Y, float64(i%2))
	}
	if _, err := TrainSourceContext(context.Background(), models.LogisticRegression{}, ds, Options{Epsilon: 0.1, InitialSampleSize: 2}); err == nil {
		t.Fatal("trained a model with no parameters")
	}
	if _, err := ComputeStatistics(models.LogisticRegression{}, ds, nil, Options{Epsilon: 0.1}); err == nil {
		t.Fatal("statistics for a model with no parameters")
	}
}

// meStatsShape is the statistics problem of the max-entropy benchmark
// workload: ten classes over 40 features (d = 400), n₀ = 2000 dense rows.
func meStatsShape() (models.Spec, *dataset.Dataset, []float64) {
	spec := models.MaxEntropy{Classes: 10, Reg: 0.001}
	ds := datagen.MNIST(datagen.Config{Rows: 2000, Dim: 40, Seed: 1})
	theta := make([]float64, spec.ParamDim(ds))
	for i := range theta {
		theta[i] = 0.01 * float64(i%11-5)
	}
	return spec, ds, theta
}

// TestObservedFisherAllocBound guards the covariance side's memory: at
// degree 1 the statistics of the max-entropy workload's shape allocate J
// (d² + d values) and L (d x rank ≤ d²) and O(d) besides — not the n₀
// gradient rows or copies of J.
func TestObservedFisherAllocBound(t *testing.T) {
	atDegreeOne(t)
	spec, ds, theta := meStatsShape()
	opt := Options{Epsilon: 0.1}.WithDefaults()
	if _, err := ComputeStatistics(spec, ds, theta, opt); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := ComputeStatistics(spec, ds, theta, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	d := uint64(len(theta))
	bound := 2*d*d*8 + 64*d*8
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("ComputeStatistics allocated %d bytes at d = %d, rank %d; the bound is 2·d²·8 + 64·d·8 = %d", got, d, st.Rank, bound)
	}
}

// BenchmarkObservedFisher times the statistics phase at degree 1 at the two
// benchmark workloads' shapes: the max-entropy covariance side (d = 400, n₀ = 2000,
// dense) and the sparse logistic Gram side (n₀ = 500, d = 10⁴).
func BenchmarkObservedFisher(b *testing.B) {
	gramSpec := models.LogisticRegression{Reg: 0.001}
	gramDS := datagen.Criteo(datagen.Config{Rows: 500, Dim: 10000, Seed: 1})
	gramTheta := make([]float64, gramDS.Dim)
	for i := range gramTheta {
		gramTheta[i] = 0.01 * float64(i%7-3)
	}
	meSpec, meDS, meTheta := meStatsShape()
	for _, c := range []struct {
		name  string
		spec  models.Spec
		ds    *dataset.Dataset
		theta []float64
	}{
		{"maxent-covariance-d400-n2000", meSpec, meDS, meTheta},
		{"logistic-gram-sparse-d10000-n500", gramSpec, gramDS, gramTheta},
	} {
		b.Run(c.name, func(b *testing.B) {
			atDegreeOne(b)
			opt := Options{Epsilon: 0.1}.WithDefaults()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ComputeStatistics(c.spec, c.ds, c.theta, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
