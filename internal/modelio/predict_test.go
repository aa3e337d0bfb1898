package modelio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/models"
)

// Model.Predict and Model.PredictInto must give Spec.Predict's bits for
// every family and class count, on dense, sparse and short rows over
// awkward values, whichever way the model was made — FromResult, Decode, a
// literal, or a model whose Theta was reassigned after it was built — with
// the lane kernels on (where the CPU has them) and off. Predictions compare
// equal when both are NaN.
func TestModelPredictMatchesSpec(t *testing.T) {
	cases := []struct {
		name string
		spec models.Spec
	}{
		{"linear", models.LinearRegression{Reg: 0.01}},
		{"logistic", models.LogisticRegression{Reg: 0.01}},
		{"poisson", models.PoissonRegression{Reg: 0.01}},
		{"ppca", models.NewPPCA(3)},
	}
	for _, k := range []int{3, 10, 16, 17} {
		cases = append(cases, struct {
			name string
			spec models.Spec
		}{fmt.Sprintf("maxent-%d", k), models.MaxEntropy{Reg: 0.01, Classes: k}})
	}
	for _, on := range []bool{true, false} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("lanes=%v/%s", on, c.name), func(t *testing.T) {
				defer linalg.SetLanes(on)()
				modelPredictMatchesSpec(t, c.spec)
			})
		}
	}
}

func modelPredictMatchesSpec(t *testing.T, spec models.Spec) {
	const d = 9
	r := rand.New(rand.NewSource(53))
	awkward := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e300}
	value := func(finite bool) float64 {
		if r.Intn(8) == 0 {
			if v := awkward[r.Intn(len(awkward))]; !finite || !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
		return r.NormFloat64()
	}
	// θ stays finite so that every model encodes; the rows do not.
	newTheta := func() []float64 {
		theta := make([]float64, spec.ParamDim(&dataset.Dataset{Dim: d}))
		for i := range theta {
			theta[i] = value(true)
		}
		return theta
	}
	var rows []dataset.Row
	for i := 0; i < 200; i++ {
		dense := make(dataset.DenseRow, d)
		for j := range dense {
			dense[j] = value(false)
		}
		sp := &dataset.SparseRow{N: d}
		for j := 0; j < d; j++ {
			if r.Intn(3) == 0 {
				sp.Idx = append(sp.Idx, int32(j))
				sp.Val = append(sp.Val, value(false))
			}
		}
		rows = append(rows, dense, sp, dense[:d-2])
	}

	theta := newTheta()
	built := FromResult(spec, d, &core.Result{Theta: theta})
	_, multi := spec.(models.MaxEntropy)
	if (built.weights != nil) != multi {
		t.Fatalf("FromResult prepared weights %v, want %v", built.weights != nil, multi)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, built); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if (decoded.weights != nil) != multi {
		t.Fatalf("Decode prepared weights %v, want %v", decoded.weights != nil, multi)
	}
	reassigned := FromResult(spec, d, &core.Result{Theta: linalg.CopyVec(theta)})
	reassigned.Theta = newTheta()
	for name, m := range map[string]*Model{
		"FromResult": built,
		"Decode":     decoded,
		"literal":    {Spec: spec, Theta: theta, Dim: d},
		"reassigned": reassigned,
	} {
		want := make([]float64, len(rows))
		for i, x := range rows {
			want[i] = m.Spec.Predict(m.Theta, x)
		}
		batch := make([]float64, len(rows))
		m.PredictInto(rows, batch)
		for i, x := range rows {
			if got := m.Predict(x); !sameBits(got, want[i]) {
				t.Fatalf("%s: row %d (%T, dim %d): Predict %v, Spec.Predict %v", name, i, x, x.Dim(), got, want[i])
			}
			if !sameBits(batch[i], want[i]) {
				t.Fatalf("%s: row %d (%T, dim %d): PredictInto %v, Spec.Predict %v", name, i, x, x.Dim(), batch[i], want[i])
			}
		}
	}
}

// A model's prepared weights are read by every goroutine that predicts
// with it, as the serving layer's blocks do; under -race this shows they
// are only read.
func TestModelPredictConcurrent(t *testing.T) {
	const d, k = 8, 10
	r := rand.New(rand.NewSource(7))
	theta := make([]float64, k*d)
	for i := range theta {
		theta[i] = r.NormFloat64()
	}
	rows := make([]dataset.Row, 256)
	for i := range rows {
		x := make(dataset.DenseRow, d)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		rows[i] = x
	}
	spec := models.MaxEntropy{Classes: k}
	m := FromResult(spec, d, &core.Result{Theta: theta})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(rows))
			m.PredictInto(rows, out)
			for i, x := range rows {
				if want := spec.Predict(theta, x); out[i] != want || m.Predict(x) != want {
					t.Errorf("row %d: PredictInto %v, Predict %v, Spec.Predict %v", i, out[i], m.Predict(x), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// BenchmarkModelPredict times Model.Predict one row at a time over 20 000
// dense rows, the benchmark harness's predict op: a max-entropy model of
// ten classes of 40 weights (MNIST-shaped rows) and a logistic model of 28
// (Higgs-shaped).
func BenchmarkModelPredict(b *testing.B) {
	for _, c := range []struct {
		name     string
		spec     models.Spec
		workload string
		dim      int
	}{
		{"maxent-40x10", models.MaxEntropy{Reg: 0.001, Classes: 10}, "mnist", 40},
		{"logistic-28", models.LogisticRegression{Reg: 0.001}, "higgs", 28},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, err := datagen.Generate(c.workload, datagen.Config{Rows: 20000, Dim: c.dim, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			theta := make([]float64, c.spec.ParamDim(ds))
			for i := range theta {
				theta[i] = r.NormFloat64()
			}
			m := FromResult(c.spec, ds.Dim, &core.Result{Theta: theta})
			out := make([]float64, ds.Len())
			b.ReportAllocs()
			for b.Loop() {
				for i, x := range ds.X {
					out[i] = m.Predict(x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ds.Len()), "ns/row")
		})
	}
}
