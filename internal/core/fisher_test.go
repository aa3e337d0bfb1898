package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
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

// addOuterRow accumulates row·rowᵀ into m, on a sparse row's nnz x nnz
// block.
func addOuterRow(m *linalg.Dense, row dataset.Row) {
	if r, ok := row.(*dataset.SparseRow); ok {
		linalg.SpOuterAdd(m, 1, r.Idx, r.Val)
		return
	}
	r := row.(dataset.DenseRow)
	m.OuterAdd(1, r, r)
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

// copyScaledEigvecs is scaledEigvecs as it was before it built the factor
// in the eigensolved matrix's storage: eigenvector j read from row j of
// vecs, scaled, into column j of a fresh n x rank matrix. vecs is left as
// it was.
func copyScaledEigvecs(values []float64, vecs *linalg.Dense, relTol float64, scale func(lam float64) float64) *linalg.Dense {
	n := len(values)
	cut := relTol * relTol * math.Max(values[0], 0)
	rank := 0
	for rank < n && values[rank] > cut && values[rank] > 0 {
		rank++
	}
	out := linalg.NewDense(n, rank)
	for j := 0; j < rank; j++ {
		c := scale(values[j])
		for i, v := range vecs.Row(j) {
			out.Data[i*rank+j] = c * v
		}
	}
	return out
}

// TestScaledEigvecsInPlace: the factor built in the eigensolved matrix's
// storage is the copy formulation's bit for bit, at sizes either side of
// TransposeInPlace's 32-wide tiles and at every rank from none to full,
// with the dropped tail below the cut, zero or negative. A kept factor
// shares the input's backing array.
func TestScaledEigvecsInPlace(t *testing.T) {
	const relTol = 1e-3
	rng := rand.New(rand.NewSource(7))
	scale := func(mu float64) float64 { return math.Sqrt(mu) / (mu + 0.3) }
	for _, n := range []int{1, 31, 32, 33, 65, 400} {
		for _, rank := range []int{0, 1, n - 1, n} {
			for _, tail := range []string{"below-cut", "zero", "negative"} {
				if rank == 0 && tail == "below-cut" {
					continue // a positive λ_max is above its own cut
				}
				values := make([]float64, n)
				for j := range rank {
					values[j] = float64(n - j)
				}
				cut := relTol * relTol * math.Max(values[0], 0)
				for j := rank; j < n; j++ {
					switch tail {
					case "below-cut":
						values[j] = cut / float64(2+j)
					case "negative":
						values[j] = -float64(j + 1)
					}
				}
				vecs := linalg.NewDense(n, n)
				for i := range vecs.Data {
					vecs.Data[i] = rng.NormFloat64()
				}
				want := copyScaledEigvecs(values, vecs, relTol, scale)
				first := &vecs.Data[0]
				got := scaledEigvecs(values, vecs, relTol, scale)
				what := fmt.Sprintf("n=%d rank=%d tail=%s", n, rank, tail)
				requireSameBits(t, what, got, want)
				if rank > 0 && (&got.Data[0] != first || cap(got.Data) != n*n) {
					t.Fatalf("%s: the factor does not live in the input's storage", what)
				}
			}
		}
	}
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
			if _, sparse := c.ds.X[0].(*dataset.SparseRow); len(theta) > c.ds.Len() || sparse {
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
// (d² + d values), in whose storage L is built, and O(d) besides — not the
// n₀ gradient rows, a copy of J or a separate L.
func TestObservedFisherAllocBound(t *testing.T) {
	atDegreeOne(t)
	spec, ds, theta := meStatsShape()
	d := uint64(len(theta))
	statsAllocBound(t, spec, ds, theta, ObservedFisher, d*d*8+64*d*8, "d²·8 + 64·d·8")
}

// TestObservedFisherGramAllocBound is its Gram-side twin at the sparse
// Criteo shape (n₀ = 500, d = 10⁴): G (n₀² values), in whose storage M is
// built, the n₀ sparse gradient rows and O(d) besides — not a separate M.
func TestObservedFisherGramAllocBound(t *testing.T) {
	atDegreeOne(t)
	spec, ds, theta := criteoGramShape()
	n, d := uint64(ds.Len()), uint64(len(theta))
	statsAllocBound(t, spec, ds, theta, ObservedFisher, n*n*8+8*d*8, "n₀²·8 + 8·d·8")
}

// statsAllocBound fails unless one ComputeStatistics call by method m,
// after a warm-up, allocates fewer than bound bytes.
func statsAllocBound(t *testing.T, spec models.Spec, ds *dataset.Dataset, theta []float64, m Method, bound uint64, formula string) {
	t.Helper()
	opt := Options{Epsilon: 0.1, Method: m}.WithDefaults()
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("ComputeStatistics allocated %d bytes at n₀ = %d, d = %d, rank %d; the bound is %s = %d", got, ds.Len(), len(theta), st.Rank, formula, bound)
	}
}

// TestFactorBytesCountsStorage: a plan's cached covariance-side factor
// keeps alive the allocation J was reduced into — J's d² floats and the
// d gradient sums behind them — whatever its rank, and factorBytes counts
// exactly that.
func TestFactorBytesCountsStorage(t *testing.T) {
	spec, ds, theta := meStatsShape()
	st, err := ComputeStatistics(spec, ds, theta, Options{Epsilon: 0.1}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	d := int64(len(theta))
	if got, want := factorBytes(st.Factor), 8*(d*d+d); got != want {
		t.Fatalf("factorBytes = %d at d = %d, rank %d; want 8·(d² + d) = %d", got, d, st.Rank, want)
	}
}

// criteoGramShape is the Gram-side statistics problem of the sparse
// logistic benchmark workload: n₀ = 500 Criteo rows at d = 10⁴.
func criteoGramShape() (models.Spec, *dataset.Dataset, []float64) {
	spec := models.LogisticRegression{Reg: 0.001}
	ds := datagen.Criteo(datagen.Config{Rows: 500, Dim: 10000, Seed: 1})
	theta := make([]float64, ds.Dim)
	for i := range theta {
		theta[i] = 0.01 * float64(i%7-3)
	}
	return spec, ds, theta
}

// BenchmarkObservedFisher times the statistics phase at degree 1 at the two
// benchmark workloads' shapes: the max-entropy covariance side (d = 400, n₀ = 2000,
// dense) and the sparse logistic Gram side (n₀ = 500, d = 10⁴).
func BenchmarkObservedFisher(b *testing.B) {
	gramSpec, gramDS, gramTheta := criteoGramShape()
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

// sparseFisherPin is one model class's pinned ObservedFisher factors on
// sparse rows: ThetaFingerprint of the covariance side's L and of the Gram
// side's M, each {with, without} math.Exp's FMA branch, and each side's
// flop count, which no floating-point setting moves.
type sparseFisherPin struct {
	name          string
	spec          models.Spec
	task          dataset.Task
	classes       int
	cov, gram     [2]uint64
	covFl, gramFl int64
}

// TestSparseFisherPinnedAtParent pins the ObservedFisher factors on sparse
// rows for every model class, as the commit before gradient rows became
// ExampleLossGrad into zeros computed them at degree 1: L of the covariance
// side (a 400 x 60 sparse fixture, d ≤ n) and M of the Gram side (150 x 400,
// d > n), at a fixed θ. It also pins n and θ of one logistic contract whose
// statistics run on the Gram side (d = 400 > n₀ = 200). The two columns are
// TestContractsPinnedAtParent's: math.Exp's bits at −0.2 pick the column.
func TestSparseFisherPinnedAtParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints were captured on amd64")
	}
	fma := math.Float64bits(math.Exp(-0.2)) == 0x3fea330ad6166159
	col := 1
	if fma {
		col = 0
	}
	atDegreeOne(t)
	for _, p := range []sparseFisherPin{
		{"linear", models.LinearRegression{Reg: 0.001}, dataset.Regression, 0,
			[2]uint64{0x145558044daf342b, 0x145558044daf342b}, [2]uint64{0xc97d0a73161732a8, 0xc97d0a73161732a8}, 880800, 13681200},
		{"logistic", models.LogisticRegression{Reg: 0.01}, dataset.BinaryClassification, 0,
			[2]uint64{0x1140dc46e457fc6, 0xc3416fe60a088ea3}, [2]uint64{0xa82e9737ab99a6f7, 0xc62542fbbc36b9d7}, 880800, 13681200},
		{"poisson", models.PoissonRegression{Reg: 0.001}, dataset.Regression, 0,
			[2]uint64{0xd59238ba6f80888f, 0xf80317ef7030b42e}, [2]uint64{0xd9e1e749cd973a85, 0xa011b8f5bf179975}, 880800, 13681200},
		{"maxent", models.MaxEntropy{Classes: 3, Reg: 0.001}, dataset.MultiClassification, 3,
			[2]uint64{0x598dfa1b896da2c2, 0x1a6da90b94b0db5c}, [2]uint64{0x5ca12ec700fd38d2, 0xc1d9f28befb622e6}, 23464800, 14043600},
		{"ppca", models.NewPPCA(3), dataset.Unsupervised, 0,
			[2]uint64{0x3e4ffc0af907c5d5, 0x3e4ffc0af907c5d5}, [2]uint64{0x5955a537387ed90f, 0x5955a537387ed90f}, 36360000, 40680000},
	} {
		for _, side := range []struct {
			name                 string
			rows, dim, nnz, seed int
			want                 uint64
			flops                int64
		}{
			{"covariance", 400, 60, 6, 9, p.cov[col], p.covFl},
			{"gram", 150, 400, 8, 5, p.gram[col], p.gramFl},
		} {
			t.Run(p.name+"/"+side.name, func(t *testing.T) {
				ds := sparseFixture(t, p.task, side.rows, side.dim, side.nnz, p.classes, int64(side.seed))
				theta := make([]float64, p.spec.ParamDim(ds))
				for i := range theta {
					theta[i] = 0.05 * float64(i%7-3)
				}
				st, err := ComputeStatistics(p.spec, ds, theta, Options{Epsilon: 0.05}.WithDefaults())
				if err != nil {
					t.Fatal(err)
				}
				var f *linalg.Dense
				switch fac := st.Factor.(type) {
				case *DenseFactor:
					f = fac.L
				case *GradFactor:
					f = fac.m
				}
				if wantGram := len(theta) > ds.Len(); f == nil || wantGram != (side.name == "gram") {
					t.Fatalf("d = %d, n = %d: a %T, not the %s side's factor", len(theta), ds.Len(), st.Factor, side.name)
				}
				if got := ThetaFingerprint(f.Data); got != side.want || st.flops != side.flops {
					t.Fatalf("%d x %d factor %#x, %d flops; the parent computed %#x, %d flops (math.Exp's FMA branch: %v)", f.Rows, f.Cols, got, st.flops, side.want, side.flops, fma)
				}
			})
		}
	}
	t.Run("logistic-gram-contract", func(t *testing.T) {
		ds := sparseFixture(t, dataset.BinaryClassification, 1500, 400, 8, 0, 5)
		opt := Options{Epsilon: 0.05, Seed: 11, InitialSampleSize: 200, K: 30}
		r, err := TrainSourceContext(context.Background(), models.LogisticRegression{Reg: 0.01}, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := [2]pinnedOutcome{{1266, 0xbba97e42ce802e8c}, {1266, 0x1d1b966fadfca07f}}[col]
		if got := ThetaFingerprint(r.Theta); r.SampleSize != want.n || got != want.theta {
			t.Fatalf("n = %d θ = %#x, the parent computed n = %d θ = %#x (math.Exp's FMA branch: %v)", r.SampleSize, got, want.n, want.theta, fma)
		}
	})
}
