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
)

// The Hessian tail statsFromHessian replaced, kept as the bit-for-bit
// reference: J is a clone of H, the column solves go into a fresh X = H⁻¹J
// and the row solves into a fresh M = H⁻¹Xᵀ, which is symmetrized and
// eigensolved into the factor.
func refHessianFactor(t *testing.T, h *linalg.Dense, beta float64, opt Options) *linalg.Dense {
	t.Helper()
	d := h.Rows
	j := h.Clone()
	j.AddDiag(-beta)
	lu, err := linalg.NewLU(h)
	if err != nil {
		hj := h.Clone()
		hj.AddDiag(1e-8 * (1 + h.FrobeniusNorm()/float64(d)))
		if lu, err = linalg.NewLU(hj); err != nil {
			t.Fatal(err)
		}
	}
	x := linalg.NewDense(d, d)
	col, sol := make([]float64, d), make([]float64, d)
	for c := 0; c < d; c++ {
		for i := range col {
			col[i] = j.At(i, c)
		}
		lu.Solve(col, sol)
		for i, v := range sol {
			x.Set(i, c, v)
		}
	}
	m := linalg.NewDense(d, d)
	for r := 0; r < d; r++ {
		lu.Solve(x.Row(r), sol)
		for i, v := range sol {
			m.Set(i, r, v)
		}
	}
	m.Symmetrize()
	values, err := eigRows(m, "covariance")
	if err != nil {
		t.Fatal(err)
	}
	return scaledEigvecs(values, m, opt.SVDRelTol, math.Sqrt)
}

// refFiniteDifferenceHessian is InverseGradients' H as it was built before
// the perturbed gradients shared one objective and one buffer: a fresh
// objective and a fresh gradient per call.
func refFiniteDifferenceHessian(spec models.Spec, ds *dataset.Dataset, theta []float64, step float64) *linalg.Dense {
	d := len(theta)
	grad := func(th []float64) []float64 {
		g := make([]float64, d)
		models.Objective(spec, ds).Eval(th, g)
		return g
	}
	g0 := grad(theta)
	h := linalg.NewDense(d, d)
	pert := linalg.CopyVec(theta)
	for j := 0; j < d; j++ {
		pert[j] = theta[j] + step
		gj := grad(pert)
		pert[j] = theta[j]
		for i := 0; i < d; i++ {
			h.Set(i, j, (gj[i]-g0[i])/step)
		}
	}
	h.Symmetrize()
	return h
}

// collinearFixture is TestStatsFromSingularHessian's data: two identical
// features, so with β = 0 the closed-form H is singular and the tail takes
// its regularized retry.
func collinearFixture() *dataset.Dataset {
	ds := &dataset.Dataset{Dim: 2, Task: dataset.Regression, Name: "collinear"}
	for i := 0; i < 50; i++ {
		v := float64(i) / 10
		ds.X = append(ds.X, dataset.DenseRow{v, v})
		ds.Y = append(ds.Y, 2*v)
	}
	return ds
}

// TestHessianFactorInPlace: ClosedForm's and InverseGradients' factors,
// solved for in H's own storage, are the bits of the reference tail above
// (and, for InverseGradients, the reference H), on dense and sparse rows,
// with β > 0 and on a singular H with β = 0, at one and at four workers.
func TestHessianFactorInPlace(t *testing.T) {
	cases := []struct {
		name  string
		spec  models.Spec
		ds    func(t *testing.T) *dataset.Dataset
		theta func(d int) []float64
		retry bool // ClosedForm's H is singular
	}{
		{"logistic-dense", models.LogisticRegression{Reg: 0.01},
			func(*testing.T) *dataset.Dataset { return datagen.Higgs(datagen.Config{Rows: 400, Dim: 12, Seed: 3}) },
			pattern(0.05), false},
		{"poisson-sparse", models.PoissonRegression{Reg: 0.001},
			func(t *testing.T) *dataset.Dataset { return sparseFixture(t, dataset.Regression, 400, 60, 6, 0, 9) },
			pattern(0.05), false},
		{"maxent-sparse", models.MaxEntropy{Classes: 3, Reg: 0.001},
			func(t *testing.T) *dataset.Dataset {
				return sparseFixture(t, dataset.MultiClassification, 300, 20, 5, 3, 7)
			},
			pattern(0.05), false},
		{"linear-singular", models.LinearRegression{Reg: 0},
			func(*testing.T) *dataset.Dataset { return collinearFixture() },
			func(int) []float64 { return []float64{1, 1} }, true},
	}
	for _, degree := range []int{1, 4} {
		for _, c := range cases {
			for _, m := range []Method{ClosedForm, InverseGradients} {
				t.Run(fmt.Sprintf("%s/%v/degree%d", c.name, m, degree), func(t *testing.T) {
					prev := compute.Parallelism()
					compute.SetParallelism(degree)
					t.Cleanup(func() { compute.SetParallelism(prev) })
					ds := c.ds(t)
					theta := c.theta(c.spec.ParamDim(ds))
					opt := Options{Epsilon: 0.1, Method: m}.WithDefaults()
					var h *linalg.Dense
					if m == ClosedForm {
						h = c.spec.(models.Hessianer).Hessian(theta, ds)
					} else {
						h = refFiniteDifferenceHessian(c.spec, ds, theta, opt.FDStep)
					}
					want := refHessianFactor(t, h, c.spec.Beta(), opt)
					st, err := ComputeStatistics(c.spec, ds, theta, opt)
					if err != nil {
						t.Fatal(err)
					}
					if m == ClosedForm && c.retry != (st.kernels == 5) {
						t.Fatalf("%d kernels: the singular retry ran = %v, want %v", st.kernels, st.kernels == 5, c.retry)
					}
					got := st.Factor.(*DenseFactor).L
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("factor is %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
					}
					for i, v := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
							t.Fatalf("L[%d] = %v, want %v", i, got.Data[i], v)
						}
					}
				})
			}
		}
	}
}

// pattern returns θᵢ = scale·(i mod 7 − 3) for a d-long θ.
func pattern(scale float64) func(d int) []float64 {
	return func(d int) []float64 {
		theta := make([]float64, d)
		for i := range theta {
			theta[i] = scale * float64(i%7-3)
		}
		return theta
	}
}

// hessianStatsShape is the Hessian tail's memory shape: logistic regression
// on 2000 Higgs rows of 300 features at a fixed θ.
func hessianStatsShape() (models.Spec, *dataset.Dataset, []float64) {
	ds := datagen.Higgs(datagen.Config{Rows: 2000, Dim: 300, Seed: 1})
	return models.LogisticRegression{Reg: 0.001}, ds, pattern(0.01)(ds.Dim)
}

// TestHessianStatsAllocBound guards the Hessian tail's memory: at degree 1
// ClosedForm and InverseGradients allocate H and its LU (2·d² values) and
// O(d) a gradient besides — not a copy of J, H⁻¹J or a separate H⁻¹JH⁻¹.
func TestHessianStatsAllocBound(t *testing.T) {
	atDegreeOne(t)
	spec, ds, theta := hessianStatsShape()
	d := uint64(len(theta))
	for _, m := range []Method{ClosedForm, InverseGradients} {
		t.Run(m.String(), func(t *testing.T) {
			statsAllocBound(t, spec, ds, theta, m, 5*d*d*8/2, "2.5·d²·8")
		})
	}
}

// BenchmarkHessianStatistics times ClosedForm and InverseGradients at degree
// 1 at TestHessianStatsAllocBound's shape.
func BenchmarkHessianStatistics(b *testing.B) {
	spec, ds, theta := hessianStatsShape()
	for _, m := range []Method{ClosedForm, InverseGradients} {
		b.Run(m.String(), func(b *testing.B) {
			atDegreeOne(b)
			opt := Options{Epsilon: 0.1, Method: m}.WithDefaults()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ComputeStatistics(spec, ds, theta, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
