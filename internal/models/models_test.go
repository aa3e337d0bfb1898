package models

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/obs"
	"blinkml/internal/optimize"
)

// fdGrad computes a central finite-difference gradient of the summed
// example loss at theta.
func fdGrad(spec Spec, ds *dataset.Dataset, theta []float64) []float64 {
	h := 1e-6
	g := make([]float64, len(theta))
	loss := func(t []float64) float64 {
		var s float64
		for i := 0; i < ds.Len(); i++ {
			s += spec.ExampleLossGrad(t, ds.X[i], label(ds, i), nil)
		}
		return s
	}
	for j := range theta {
		tp := linalg.CopyVec(theta)
		tm := linalg.CopyVec(theta)
		tp[j] += h
		tm[j] -= h
		g[j] = (loss(tp) - loss(tm)) / (2 * h)
	}
	return g
}

// analyticGradSum accumulates Σ qᵢ via ExampleLossGrad.
func analyticGradSum(spec Spec, ds *dataset.Dataset, theta []float64) []float64 {
	g := make([]float64, len(theta))
	for i := 0; i < ds.Len(); i++ {
		spec.ExampleLossGrad(theta, ds.X[i], label(ds, i), g)
	}
	return g
}

func tinyRegression(rng *rand.Rand, n, d int, sparse bool) *dataset.Dataset {
	trueTheta := make([]float64, d)
	for i := range trueTheta {
		trueTheta[i] = rng.NormFloat64()
	}
	ds := &dataset.Dataset{Dim: d, Task: dataset.Regression, Name: "tiny-reg"}
	for i := 0; i < n; i++ {
		row := makeRow(rng, d, sparse)
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, row.Dot(trueTheta)+0.01*rng.NormFloat64())
	}
	return ds
}

func tinyBinary(rng *rand.Rand, n, d int, sparse bool) *dataset.Dataset {
	trueTheta := make([]float64, d)
	for i := range trueTheta {
		trueTheta[i] = rng.NormFloat64() * 2
	}
	ds := &dataset.Dataset{Dim: d, Task: dataset.BinaryClassification, Name: "tiny-bin"}
	for i := 0; i < n; i++ {
		row := makeRow(rng, d, sparse)
		p := sigmoid(row.Dot(trueTheta))
		y := 0.0
		if rng.Float64() < p {
			y = 1
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func tinyMulti(rng *rand.Rand, n, d, k int) *dataset.Dataset {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = 3 * rng.NormFloat64()
		}
	}
	ds := &dataset.Dataset{Dim: d, Task: dataset.MultiClassification, NumClasses: k, Name: "tiny-multi"}
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		row := make(dataset.DenseRow, d)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, float64(c))
	}
	return ds
}

func tinyCounts(rng *rand.Rand, n, d int) *dataset.Dataset {
	trueTheta := make([]float64, d)
	for i := range trueTheta {
		trueTheta[i] = 0.3 * rng.NormFloat64()
	}
	ds := &dataset.Dataset{Dim: d, Task: dataset.Regression, Name: "tiny-counts"}
	for i := 0; i < n; i++ {
		row := makeRow(rng, d, false)
		lambda := math.Exp(row.Dot(trueTheta))
		// Poisson draw via inversion (small lambda regime).
		y, p, u := 0.0, math.Exp(-lambda), rng.Float64()
		cum := p
		for u > cum && y < 100 {
			y++
			p *= lambda / y
			cum += p
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func makeRow(rng *rand.Rand, d int, sparse bool) dataset.Row {
	if !sparse {
		row := make(dataset.DenseRow, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		return row
	}
	var idx []int32
	var val []float64
	for j := 0; j < d; j++ {
		if rng.Float64() < 0.4 {
			idx = append(idx, int32(j))
			val = append(val, rng.NormFloat64())
		}
	}
	if len(idx) == 0 {
		idx, val = []int32{0}, []float64{1}
	}
	sp, _ := dataset.NewSparseRow(d, idx, val)
	return sp
}

func specsUnderTest() map[string]Spec {
	return map[string]Spec{
		"linear":   LinearRegression{Reg: 0.01},
		"logistic": LogisticRegression{Reg: 0.01},
		"maxent":   MaxEntropy{Reg: 0.01, Classes: 3},
		"poisson":  PoissonRegression{Reg: 0.01},
	}
}

func datasetFor(name string, rng *rand.Rand, n, d int, sparse bool) *dataset.Dataset {
	switch name {
	case "linear":
		return tinyRegression(rng, n, d, sparse)
	case "logistic":
		return tinyBinary(rng, n, d, sparse)
	case "maxent":
		return tinyMulti(rng, n, d, 3)
	case "poisson":
		return tinyCounts(rng, n, d)
	}
	panic("unknown spec " + name)
}

// Gradient check: the accumulated analytic gradient must match finite
// differences of the example losses.
func TestExampleGradientsMatchFiniteDifferences(t *testing.T) {
	for name, spec := range specsUnderTest() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ds := datasetFor(name, rng, 20, 5, false)
			theta := make([]float64, spec.ParamDim(ds))
			for i := range theta {
				theta[i] = 0.3 * rng.NormFloat64()
			}
			got := analyticGradSum(spec, ds, theta)
			want := fdGrad(spec, ds, theta)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-4*(1+math.Abs(want[j])) {
					t.Fatalf("grad[%d]=%v, finite-diff %v", j, got[j], want[j])
				}
			}
		})
	}
}

// sparsified returns ds with every dense row stored sparse over the
// features j with j%3 ≠ 1, the ones with j%3 = 2 as explicit zeros.
func sparsified(ds *dataset.Dataset) *dataset.Dataset {
	out := *ds
	out.X = make([]dataset.Row, ds.Len())
	for i, x := range ds.X {
		r, ok := x.(dataset.DenseRow)
		if !ok {
			out.X[i] = x
			continue
		}
		var idx []int32
		var val []float64
		for j, v := range r {
			switch j % 3 {
			case 0:
				idx, val = append(idx, int32(j)), append(val, v)
			case 2:
				idx, val = append(idx, int32(j)), append(val, 0)
			}
		}
		out.X[i] = &dataset.SparseRow{N: ds.Dim, Idx: idx, Val: val}
	}
	return &out
}

// checkGradRowLayout asserts that q, the gradient row of x, is dense over
// θ for a dense x, and for a sparse x holds ns·nnz(x) stored entries in
// class-major order: entry c·nnz+t at class block c's copy of x's t-th
// index.
func checkGradRowLayout(t *testing.T, spec Spec, theta []float64, x dataset.Row, q dataset.Row) {
	t.Helper()
	xs, sparse := x.(*dataset.SparseRow)
	if !sparse {
		if r, ok := q.(dataset.DenseRow); !ok || len(r) != len(theta) {
			t.Fatalf("dense input gave a %T of %d entries, want a dense row of %d", q, q.NNZ(), len(theta))
		}
		return
	}
	r, ok := q.(*dataset.SparseRow)
	if !ok {
		t.Fatalf("sparse input gave a %T", q)
	}
	ns, nnz := spec.(ScoreModel).NumScores(len(theta), xs.N), len(xs.Idx)
	if r.N != len(theta) || len(r.Idx) != ns*nnz || len(r.Val) != ns*nnz {
		t.Fatalf("gradient row of dim %d with %d indices and %d values, want dim %d and %d·%d entries", r.N, len(r.Idx), len(r.Val), len(theta), ns, nnz)
	}
	for c := 0; c < ns; c++ {
		for k, j := range xs.Idx {
			if got := r.Idx[c*nnz+k]; int(got) != c*xs.N+int(j) {
				t.Fatalf("entry %d has index %d, want class %d's copy of %d", c*nnz+k, got, c, j)
			}
		}
	}
}

// The gradient rows PerExampleGradRows makes must add up to the
// accumulated gradient, dense or sparse, and keep GradRow's layout.
func TestGradRowsMatchAccumulation(t *testing.T) {
	for name, spec := range specsUnderTest() {
		for _, sparse := range []bool{false, true} {
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(13))
				ds := datasetFor(name, rng, 15, 6, sparse)
				if sparse {
					ds = sparsified(ds)
				}
				theta := make([]float64, spec.ParamDim(ds))
				for i := range theta {
					theta[i] = 0.2 * rng.NormFloat64()
				}
				sum := make([]float64, len(theta))
				for i, q := range PerExampleGradRows(spec, ds, theta) {
					checkGradRowLayout(t, spec, theta, ds.X[i], q)
					q.AddTo(sum, 1)
				}
				want := analyticGradSum(spec, ds, theta)
				for j := range sum {
					if math.Abs(sum[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
						t.Fatalf("grad row sum[%d]=%v want %v", j, sum[j], want[j])
					}
				}
			})
		}
	}
}

// PerExampleGradRows makes its rows as one block: for lr-sparse-store's
// Gram side, 500 one-hot Criteo rows at d = 10⁴, a handful of allocations
// (rows, headers, values, the pool chunks' scratch, the pool's own), not
// two a row. The degree is pinned at 2, where the pool starts one helper.
func TestGradRowsOneBlock(t *testing.T) {
	defer compute.SetParallelism(compute.Parallelism())
	compute.SetParallelism(2)
	ds := datagen.Criteo(datagen.Config{Rows: 500, Dim: 10000, Seed: 1})
	spec := LogisticRegression{Reg: 0.001}
	theta := make([]float64, ds.Dim)
	for i := range theta {
		theta[i] = 0.01 * float64(i%7-3)
	}
	if a := testing.AllocsPerRun(5, func() { PerExampleGradRows(spec, ds, theta) }); a > 10 {
		t.Fatalf("%v allocations for %d gradient rows, want at most 10", a, ds.Len())
	}
}

// A max-entropy gradient row of a sparse input holds, in class-major
// order, the bits ExampleLossGrad adds into zeros at every stored index,
// explicit zeros included.
func TestMaxEntSparseGradRow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	spec := MaxEntropy{Reg: 0, Classes: 3}
	d := 8
	ds := &dataset.Dataset{Dim: d, Task: dataset.MultiClassification, NumClasses: 3}
	for i := 0; i < 10; i++ {
		ds.X = append(ds.X, makeRow(rng, d, true))
		ds.Y = append(ds.Y, float64(rng.Intn(3)))
	}
	ds.X[0] = &dataset.SparseRow{N: d, Idx: []int32{1, 4, 6}, Val: []float64{0.5, 0, -2}}
	theta := make([]float64, spec.ParamDim(ds))
	for i := range theta {
		theta[i] = rng.NormFloat64()
	}
	for i, q := range PerExampleGradRows(spec, ds, theta) {
		checkGradRowLayout(t, spec, theta, ds.X[i], q)
		dense := make([]float64, len(theta))
		spec.ExampleLossGrad(theta, ds.X[i], ds.Y[i], dense)
		r := q.(*dataset.SparseRow)
		for k, j := range r.Idx {
			if math.Float64bits(r.Val[k]) != math.Float64bits(dense[j]) {
				t.Fatalf("row %d: entry %d (index %d) = %v, ExampleLossGrad gave %v", i, k, j, r.Val[k], dense[j])
			}
		}
	}
}

// The batch gradient must equal mean(qᵢ) + βθ.
func TestBatchGradientIncludesRegularizer(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	spec := LogisticRegression{Reg: 0.5}
	ds := tinyBinary(rng, 30, 4, false)
	theta := []float64{0.1, -0.2, 0.3, 0.4}
	got := BatchGradient(spec, ds, theta)
	want := analyticGradSum(spec, ds, theta)
	for j := range want {
		want[j] = want[j]/float64(ds.Len()) + 0.5*theta[j]
	}
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-10 {
			t.Fatalf("batch grad[%d]=%v want %v", j, got[j], want[j])
		}
	}
}

// Closed-form Hessians must match finite differences of the batch gradient.
func TestClosedFormHessians(t *testing.T) {
	for name, spec := range specsUnderTest() {
		hs, ok := spec.(Hessianer)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			ds := datasetFor(name, rng, 40, 4, false)
			dim := spec.ParamDim(ds)
			theta := make([]float64, dim)
			for i := range theta {
				theta[i] = 0.2 * rng.NormFloat64()
			}
			h := hs.Hessian(theta, ds)
			eps := 1e-5
			for j := 0; j < dim; j++ {
				tp := linalg.CopyVec(theta)
				tm := linalg.CopyVec(theta)
				tp[j] += eps
				tm[j] -= eps
				gp := BatchGradient(spec, ds, tp)
				gm := BatchGradient(spec, ds, tm)
				for i := 0; i < dim; i++ {
					fd := (gp[i] - gm[i]) / (2 * eps)
					if math.Abs(h.At(i, j)-fd) > 1e-3*(1+math.Abs(fd)) {
						t.Fatalf("H[%d,%d]=%v finite-diff %v", i, j, h.At(i, j), fd)
					}
				}
			}
		})
	}
}

func TestTrainLinearRecoversTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := 6
	trueTheta := make([]float64, d)
	for i := range trueTheta {
		trueTheta[i] = rng.NormFloat64()
	}
	ds := &dataset.Dataset{Dim: d, Task: dataset.Regression}
	for i := 0; i < 500; i++ {
		row := makeRow(rng, d, false)
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, row.Dot(trueTheta))
	}
	res, err := Train(LinearRegression{Reg: 1e-6}, ds, nil, optimize.Options{GradTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueTheta {
		if math.Abs(res.Theta[i]-trueTheta[i]) > 1e-3 {
			t.Fatalf("theta[%d]=%v want %v", i, res.Theta[i], trueTheta[i])
		}
	}
}

func TestTrainLogisticSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ds := tinyBinary(rng, 800, 5, false)
	spec := LogisticRegression{Reg: 0.001}
	res, err := Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(spec, res.Theta, ds); acc < 0.75 {
		t.Fatalf("training accuracy %v too low", acc)
	}
}

func TestTrainMaxEntSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ds := tinyMulti(rng, 600, 6, 3)
	spec := MaxEntropy{Reg: 0.001, Classes: 3}
	res, err := Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(spec, res.Theta, ds); acc < 0.9 {
		t.Fatalf("maxent accuracy %v too low", acc)
	}
}

func TestTrainPoissonRecoversRates(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ds := tinyCounts(rng, 2000, 4)
	spec := PoissonRegression{Reg: 1e-5}
	res, err := Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("poisson did not converge")
	}
	// Gradient at optimum should be ~0.
	if g := linalg.NormInf(BatchGradient(spec, ds, res.Theta)); g > 1e-4 {
		t.Fatalf("gradient at optimum %v", g)
	}
}

func TestTrainTaskMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ds := tinyRegression(rng, 10, 3, false)
	if _, err := Train(LogisticRegression{}, ds, nil, optimize.Options{}); err == nil {
		t.Fatal("expected task mismatch error")
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	ds := &dataset.Dataset{Dim: 3, Task: dataset.Regression}
	if _, err := Train(LinearRegression{}, ds, nil, optimize.Options{}); err == nil {
		t.Fatal("expected error on empty dataset")
	}
}

func TestTrainWarmStartDimensionChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ds := tinyRegression(rng, 10, 3, false)
	if _, err := Train(LinearRegression{}, ds, make([]float64, 7), optimize.Options{}); err == nil {
		t.Fatal("expected warm-start dimension error")
	}
}

// TestTrainRefusesNonFiniteObjective: a NaN or ±Inf feature makes the
// objective non-finite at every θ, so the solver stops where it started.
// Train must say so with ErrNonFiniteObjective instead of returning that
// start (θ = 0) as a model.
func TestTrainRefusesNonFiniteObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	cases := []struct {
		spec Spec
		ds   *dataset.Dataset
	}{
		{LinearRegression{Reg: 0.001}, tinyRegression(rng, 200, 4, false)},
		{LogisticRegression{Reg: 0.001}, tinyBinary(rng, 200, 4, false)},
		{MaxEntropy{Reg: 0.001, Classes: 3}, tinyMulti(rng, 200, 4, 3)},
		{PoissonRegression{Reg: 0.001}, tinyCounts(rng, 200, 4)},
	}
	for _, c := range cases {
		row := c.ds.X[17].(dataset.DenseRow)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			good := row[2]
			row[2] = bad
			res, err := Train(c.spec, c.ds, nil, optimize.Options{})
			row[2] = good
			if !errors.Is(err, ErrNonFiniteObjective) {
				t.Fatalf("%s with a %v feature: err = %v (θ = %v), want ErrNonFiniteObjective", c.spec.Name(), bad, err, res.Theta)
			}
		}
		if _, err := Train(c.spec, c.ds, nil, optimize.Options{}); err != nil {
			t.Fatalf("%s on finite rows: %v", c.spec.Name(), err)
		}
	}
}

// obs cannot import models, so its closed label set of model families is a
// second list: it must be exactly the names New accepts — the list New's
// own error spells out — and each must build the class of that name with
// the knobs passed through.
// New refuses a max-entropy class count a dataset could not have.
func TestNewBoundsMaxEntClasses(t *testing.T) {
	if spec, err := New("maxent", 0, dataset.MaxClasses+1, 0); err == nil {
		t.Fatalf("New built %+v", spec)
	}
	if _, err := New("maxent", 0, dataset.MaxClasses, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNewAcceptsExactlyTheObsModelFamilies(t *testing.T) {
	_, err := New("svm", 0, 0, 0)
	if err == nil {
		t.Fatal("unknown model name accepted")
	}
	if want := "(want " + strings.Join(obs.ModelFamilies, "|") + ")"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("New accepts %q, obs.ModelFamilies says %s", err, want)
	}
	for _, name := range obs.ModelFamilies {
		spec, err := New(name, 0.25, 7, 3)
		if err != nil || spec.Name() != name {
			t.Fatalf("New(%q) = %v, %v", name, spec, err)
		}
		switch m := spec.(type) {
		case *PPCA:
			if m.Factors != 3 {
				t.Errorf("ppca factors %d, want 3", m.Factors)
			}
		case MaxEntropy:
			if m.Classes != 7 || m.Reg != 0.25 {
				t.Errorf("maxent %+v, want 7 classes at reg 0.25", m)
			}
		default:
			if spec.Beta() != 0.25 {
				t.Errorf("%s: beta %v, want 0.25", name, spec.Beta())
			}
		}
	}
	for _, name := range []string{"", "other", "Logistic"} {
		if _, err := New(name, 0, 0, 0); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
	}
}

// A multiclass spec sized for fewer classes than the data has labels must be
// refused before the first gradient indexes past its parameter blocks — also
// behind a wrapper, which is why Train asks ParamDim and not the spec's type.
func TestTrainRejectsUndersizedMulticlassSpec(t *testing.T) {
	ds := tinyMulti(rand.New(rand.NewSource(1)), 60, 4, 5)
	for name, spec := range map[string]Spec{
		"bare":    MaxEntropy{Reg: 0.01, Classes: 3},
		"wrapped": struct{ Spec }{MaxEntropy{Reg: 0.01, Classes: 3}},
	} {
		_, err := Train(spec, ds, nil, optimize.Options{})
		if err == nil || !strings.Contains(err.Error(), "3 classes") || !strings.Contains(err.Error(), "has 5") {
			t.Errorf("%s: error %v, want one naming 3 and 5 classes", name, err)
		}
	}
	if _, err := Train(MaxEntropy{Reg: 0.01, Classes: 6}, ds, nil, optimize.Options{}); err != nil {
		t.Errorf("a spec with spare classes must train: %v", err)
	}
}
