package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

func TestInflateScalesApplies(t *testing.T) {
	base := &DenseFactor{L: linalg.Identity(3)}
	inflated := Inflate(base, 0.5)
	z := []float64{1, 2, 3}
	out := make([]float64, 3)
	applyOne(inflated, z, out)
	for i := range z {
		if math.Abs(out[i]-1.5*z[i]) > 1e-12 {
			t.Fatalf("inflated apply %v want %v", out[i], 1.5*z[i])
		}
	}
	if inflated.Dim() != 3 || inflated.Rank() != 3 {
		t.Fatal("inflated factor dims wrong")
	}
}

func TestInflateNoopForZero(t *testing.T) {
	base := &DenseFactor{L: linalg.Identity(2)}
	if Inflate(base, 0) != Factor(base) {
		t.Fatal("zero inflation must return the factor unchanged")
	}
	if Inflate(base, -1) != Factor(base) {
		t.Fatal("negative inflation must return the factor unchanged")
	}
}

// VarianceInflation must make the accuracy estimate more conservative
// (larger ε₀) and the chosen sample size no smaller.
func TestVarianceInflationIsConservative(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 12000, Dim: 8, Seed: 31})
	spec := models.LogisticRegression{Reg: 0.01}
	base := Options{Epsilon: 0.03, Seed: 32, InitialSampleSize: 400}
	plain, err := TrainSourceContext(context.Background(), spec, ds, base)
	if err != nil {
		t.Fatal(err)
	}
	inflatedOpt := base
	inflatedOpt.VarianceInflation = 1.0
	conservative, err := TrainSourceContext(context.Background(), spec, ds, inflatedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if conservative.Diag.InitialEpsilon < plain.Diag.InitialEpsilon {
		t.Fatalf("inflation made ε₀ smaller: %v < %v",
			conservative.Diag.InitialEpsilon, plain.Diag.InitialEpsilon)
	}
	if conservative.SampleSize < plain.SampleSize {
		t.Fatalf("inflation shrank the chosen sample: %d < %d",
			conservative.SampleSize, plain.SampleSize)
	}
}

// Sampling through a factor — standard normals pushed through applyOne, as
// the estimators draw — must reproduce the factor covariance empirically.
func TestSampleMatchesCovariance(t *testing.T) {
	l := linalg.NewDenseFrom(2, 2, []float64{2, 0, 1, 1})
	f := &DenseFactor{L: l}
	rng := stat.NewRNG(33)
	n := 40000
	var s0, s1, ss0, ss1, cross float64
	z := make([]float64, f.Rank())
	dst := make([]float64, 2)
	for i := 0; i < n; i++ {
		rng.NormVec(z)
		applyOne(f, z, dst)
		d0, d1 := dst[0], dst[1]
		s0 += d0
		s1 += d1
		ss0 += d0 * d0
		ss1 += d1 * d1
		cross += d0 * d1
	}
	inv := 1 / float64(n)
	// Cov = L·Lᵀ = [[4, 2], [2, 2]].
	if math.Abs(s0*inv) > 0.05 || math.Abs(s1*inv) > 0.05 {
		t.Fatalf("sample mean drifted: %v %v", s0*inv, s1*inv)
	}
	if math.Abs(ss0*inv-4) > 0.15 || math.Abs(ss1*inv-2) > 0.1 || math.Abs(cross*inv-2) > 0.1 {
		t.Fatalf("sample covariance [%v %v; %v] want [4 2; 2]", ss0*inv, cross*inv, ss1*inv)
	}
}

// Training twice with the same options must be bit-for-bit deterministic.
func TestTrainDeterministic(t *testing.T) {
	ds := datagen.Criteo(datagen.Config{Rows: 8000, Dim: 200, Seed: 34})
	spec := models.LogisticRegression{Reg: 0.001}
	opt := Options{Epsilon: 0.05, Seed: 35, InitialSampleSize: 300, K: 40}
	a, err := TrainSourceContext(context.Background(), spec, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSourceContext(context.Background(), spec, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.SampleSize != b.SampleSize {
		t.Fatalf("sample sizes differ: %d vs %d", a.SampleSize, b.SampleSize)
	}
	for i := range a.Theta {
		if a.Theta[i] != b.Theta[i] {
			t.Fatalf("theta[%d] differs", i)
		}
	}
}

// refApply is the one-draw product the group apply replaced, kept as its
// reference: DenseFactor's L·z by MulVec; GradFactor's u = M·z by MulVec,
// then each row with a non-zero uᵢ added by AddTo into zeros and the mean's
// term by Axpy; inflatedFactor's Scale after its factor.
func refApply(f Factor, z, dst []float64) {
	switch f := f.(type) {
	case *inflatedFactor:
		refApply(f.f, z, dst)
		linalg.Scale(f.s, dst)
	case *DenseFactor:
		f.L.MulVec(z, dst)
	case *GradFactor:
		u := make([]float64, len(f.rows))
		f.m.MulVec(z, u)
		linalg.Fill(dst, 0)
		var uSum float64
		for i, row := range f.rows {
			if u[i] != 0 {
				row.AddTo(dst, u[i])
			}
			uSum += u[i]
		}
		linalg.Axpy(-uSum, f.mean, dst)
	default:
		panic("refApply: unknown factor")
	}
}

// blockFactor is a factor and the scores per draw (ns) of the Block layout
// its draws are scattered into.
type blockFactor struct {
	name string
	f    Factor
	ns   int
}

// blockFactors builds the factors the group apply is checked on: dense L,
// and GradFactors over logistic sparse rows (one score), max-entropy sparse
// rows (class-major, three scores), dense rows with one and with ten scores,
// each M with rows of +0 and −0 (uᵢ exactly zero); rank-0 factors of both
// kinds; and each of those inflated. Terms the one-draw product skips hold
// infinities, so adding them would show.
func blockFactors(t *testing.T) []blockFactor {
	t.Helper()
	rng := stat.NewRNG(41)
	fill := func(x []float64) {
		for i := range x {
			x[i] = rng.Norm()
		}
	}
	gram := func(spec models.Spec, ds *dataset.Dataset, rank int) *GradFactor {
		theta := make([]float64, spec.ParamDim(ds))
		fill(theta)
		rows := models.PerExampleGradRows(spec, ds, theta)
		m := linalg.NewDense(len(rows), rank)
		fill(m.Data)
		if rank > 0 {
			clear(m.Row(0))
			for k := range m.Row(3) {
				m.Row(3)[k] = math.Copysign(0, -1)
			}
		}
		// Row 0's u is always zero: an infinite entry there shows as NaN
		// unless the row is skipped.
		switch q := rows[0].(type) {
		case *dataset.SparseRow:
			q.Val[0] = math.Inf(1)
		case dataset.DenseRow:
			q[0] = math.Inf(1)
		}
		mean := make([]float64, len(theta))
		fill(mean)
		if rank == 0 {
			mean[1] = math.Inf(-1) // likewise, unless a zero Σu skips the mean
		}
		return &GradFactor{rows: rows, mean: mean, m: m, dim: len(theta)}
	}
	dense := func(d, rank int) *DenseFactor {
		l := linalg.NewDense(d, rank)
		fill(l.Data)
		return &DenseFactor{L: l}
	}
	logistic, maxent := models.LogisticRegression{Reg: 0.01}, models.MaxEntropy{Reg: 0.01, Classes: 3}
	base := []blockFactor{
		{"dense", dense(24, 7), 1},
		{"dense-3-scores", dense(24, 7), 3},
		{"gram-logistic-sparse", gram(logistic, sparseFixture(t, dataset.BinaryClassification, 40, 30, 5, 0, 42), 7), 1},
		{"gram-maxent-sparse", gram(maxent, sparseFixture(t, dataset.MultiClassification, 40, 30, 5, 3, 43), 7), 3},
		{"gram-logistic-dense", gram(logistic, datagen.Higgs(datagen.Config{Rows: 40, Dim: 6, Seed: 44}), 7), 1},
		{"gram-maxent-dense", gram(models.MaxEntropy{Reg: 0.01, Classes: 10}, datagen.MNIST(datagen.Config{Rows: 40, Dim: 6, Seed: 45}), 7), 10},
		{"dense-rank-0", dense(24, 0), 1},
		{"gram-rank-0", gram(logistic, sparseFixture(t, dataset.BinaryClassification, 40, 30, 5, 0, 46), 0), 1},
	}
	out := base
	for _, b := range base {
		out = append(out, blockFactor{b.name + "-inflated", Inflate(b.f, 0.3), b.ns})
	}
	return out
}

// blockNormals draws count ≥ 5 normal vectors of length rank, then makes
// draw 1 all ±0 and subnormals and plants huge values in draw 4, enough for
// some sums to overflow.
func blockNormals(count, rank int) [][]float64 {
	zs := drawNormals(stat.NewRNG(47), count, rank)
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-320, 1e-310}
	huge := []float64{1e300, -3e305, 1.5e308, 1.6e308}
	for k := range rank {
		zs[1][k] = tiny[k%len(tiny)]
		if k%2 == 0 {
			zs[4][k] = huge[k/2%len(huge)]
		}
	}
	return zs
}

// The group apply must give every coordinate of every draw the bits of the
// one-draw product it replaced: scattered into a Block's interleaved layout
// for groups of one draw, a partial block, a full one and more than one
// block (and that group as one run of more than groupDraws), and shifted
// there to θ + √α·w as the accuracy estimate does; as plain vectors one
// draw at a time (applyOne) and in groups across groupDraws; and as L's
// columns under Covariance — with the lane kernels on and off.
func TestFactorBlockApplyMatchesApply(t *testing.T) {
	for _, lanes := range []bool{true, false} {
		t.Run(fmt.Sprintf("lanes=%v", lanes), func(t *testing.T) {
			defer linalg.SetLanes(lanes)()
			checkFactorBlockApply(t)
		})
	}
}

// checkFactorBlockApply is TestFactorBlockApplyMatchesApply at one lanes
// setting.
func checkFactorBlockApply(t *testing.T) {
	const per = 4 // draws a Block holds
	for _, c := range blockFactors(t) {
		d, r := c.f.Dim(), c.f.Rank()
		rows := d / c.ns
		zs := blockNormals(2*per+1, r)
		theta := drawNormals(stat.NewRNG(48), 1, d)[0]
		want := make([][]float64, len(zs))
		for i, z := range zs {
			want[i] = make([]float64, d)
			refApply(c.f, z, want[i])
		}
		same := func(what string, i, p int, got float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want[i][p]) {
				t.Fatalf("%s: %s draw %d coordinate %d = %v, one-draw product %v", c.name, what, i, p, got, want[i][p])
			}
		}
		var s groupScratch
		for _, g := range []int{1, per - 1, per, 2*per + 1} {
			c.f.product(zs[:g], &s)
			// Blocks of per draws, then the whole group as one run.
			var runs [][2]int
			for g0 := 0; g0 < g; g0 += per {
				runs = append(runs, [2]int{g0, min(g, g0+per)})
			}
			if g > per {
				runs = append(runs, [2]int{0, g})
			}
			for _, run := range runs {
				g0, g1 := run[0], run[1]
				cols := (g1 - g0) * c.ns
				tt := linalg.ClassBlock(nil, cols, rows)
				for i := range tt {
					tt[i] = math.NaN()
				}
				tt = linalg.ClassBlock(tt, cols, rows)
				stride := linalg.ClassPad(cols)
				l := layout{t: tt, rows: rows, ns: c.ns, stride: stride, step: c.ns}
				c.f.scatter(&s, g0, g1, l)
				// each hands fn draw i's coordinate p as it lies in tt.
				each := func(fn func(i, p int, got float64)) {
					for j := range rows {
						for col := range stride {
							got := tt[j*stride+col]
							if col >= cols {
								if got != 0 {
									t.Fatalf("%s: padding column %d of row %d = %v", c.name, col, j, got)
								}
								continue
							}
							fn(g0+col/c.ns, (col%c.ns)*rows+j, got)
						}
					}
				}
				each(func(i, p int, got float64) { same(fmt.Sprintf("group of %d, block at %d", g, g0), i, p, got) })
				// The accuracy estimate's θ + √α·w, in place.
				l.shift(g1-g0, theta, 0.37)
				each(func(i, p int, got float64) {
					if w := theta[p] + 0.37*want[i][p]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: shifted draw %d coordinate %d = %v, want %v", c.name, i, p, got, w)
					}
				})
			}
		}
		one := make([]float64, d)
		for i, z := range zs {
			applyOne(c.f, z, one)
			for p, v := range one {
				same("applyOne", i, p, v)
			}
		}
		all := make([]float64, len(zs)*d)
		applyPlain(c.f, zs, all, &s)
		for i := range zs {
			for p, v := range all[i*d : (i+1)*d] {
				same("applyPlain", i, p, v)
			}
		}
		if _, ok := c.f.(*GradFactor); ok {
			l := linalg.NewDense(d, r)
			col := make([]float64, d)
			for j := range r {
				e := make([]float64, r)
				e[j] = 1
				refApply(c.f, e, col)
				for p, v := range col {
					l.Set(p, j, v)
				}
			}
			got, want := Covariance(c.f), linalg.Syrk(l)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: Covariance entry %d = %v, from one-draw columns %v", c.name, i, got.Data[i], v)
				}
			}
		}
	}
}
