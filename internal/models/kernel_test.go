package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// referenceEval is objective.Eval as it stood before the row-block kernel:
// the same chunks and the same tree reduction, with every example going
// through ExampleLossGrad one row at a time.
func referenceEval(spec Spec, ds *dataset.Dataset, x, grad []float64) float64 {
	n, dim := ds.Len(), len(grad)
	linalg.Fill(grad, 0)
	chunks := compute.Chunks(n, evalGrain)
	lossParts := make([]float64, chunks)
	gradParts := make([][]float64, chunks)
	compute.ForChunksN(n, chunks, func(chunk, lo, hi int) {
		g := grad
		if chunk > 0 {
			g = make([]float64, dim)
		}
		var loss float64
		for i := lo; i < hi; i++ {
			loss += spec.ExampleLossGrad(x, ds.X[i], label(ds, i), g)
		}
		lossParts[chunk] = loss
		gradParts[chunk] = g
	})
	loss := compute.ReduceFloats(lossParts)
	compute.ReduceVecs(gradParts)
	inv := 1 / float64(n)
	loss *= inv
	linalg.Scale(inv, grad)
	if beta := spec.Beta(); beta > 0 {
		loss += 0.5 * beta * linalg.Dot(x, x)
		linalg.Axpy(beta, x, grad)
	}
	return loss
}

// The blocked objective must return the per-row loop's loss and gradient bit
// for bit — every family, dense and sparse rows, one chunk and several, a
// sample length that leaves a partial block and a partial group of four.
func TestEvalBitIdenticalToPerRowLoop(t *testing.T) {
	prev := compute.Parallelism()
	defer compute.SetParallelism(prev)
	for name, spec := range specsUnderTest() {
		for _, sparse := range []bool{false, true} {
			for _, degree := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/sparse=%v/degree=%d", name, sparse, degree), func(t *testing.T) {
					compute.SetParallelism(degree)
					rng := rand.New(rand.NewSource(5))
					ds := datasetFor(name, rng, 2*evalGrain+linkBlock+3, 7, sparse)
					if name == "maxent" && sparse {
						for i, x := range ds.X {
							ds.X[i] = sparsify(x)
						}
					}
					theta := make([]float64, spec.ParamDim(ds))
					for i := range theta {
						theta[i] = 0.5 * rng.NormFloat64()
					}
					got, want := make([]float64, len(theta)), make([]float64, len(theta))
					lossGot := Objective(spec, ds).Eval(theta, got)
					lossWant := referenceEval(spec, ds, theta, want)
					if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
						t.Errorf("loss %v (%#x), per-row loop %v (%#x)", lossGot, math.Float64bits(lossGot), lossWant, math.Float64bits(lossWant))
					}
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("grad[%d] = %v (%#x), per-row loop %v (%#x)", j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
						}
					}
				})
			}
		}
	}
}

// sparsify stores a dense row's entries as a sparse row, dropping every
// third so the rows are genuinely sparse.
func sparsify(x dataset.Row) dataset.Row {
	sp := &dataset.SparseRow{N: x.Dim()}
	x.ForEach(func(i int, v float64) {
		if i%3 != 0 {
			sp.Idx = append(sp.Idx, int32(i))
			sp.Val = append(sp.Val, v)
		}
	})
	return sp
}

// The fused dense logits must equal the per-class dots bit for bit, for
// class counts on both sides of the group of four and of the fused-kernel
// limit.
func TestDenseLogitsBitIdenticalToPerClassDot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 10, 17} {
		for _, d := range []int{1, 3, 40} {
			x := make(dataset.DenseRow, d)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			theta := make([]float64, k*d)
			for j := range theta {
				theta[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
			z := make([]float64, k)
			logitsInto(theta, x, k, d, z)
			for c := range z {
				if want := x.Dot(theta[c*d : (c+1)*d]); math.Float64bits(z[c]) != math.Float64bits(want) {
					t.Fatalf("k=%d d=%d: z[%d] = %v, Dot %v", k, d, c, z[c], want)
				}
			}
		}
	}
}

// benchData is a dense n x d dataset for name's family with a plausible θ.
func benchData(name string, n, d int) (*dataset.Dataset, []float64) {
	rng := rand.New(rand.NewSource(1))
	var ds *dataset.Dataset
	switch name {
	case "maxent":
		ds = tinyMulti(rng, n, d, 10)
	default:
		ds = datasetFor(name, rng, n, d, false)
	}
	theta := make([]float64, specFor(name).ParamDim(ds))
	for i := range theta {
		theta[i] = 0.1 * rng.NormFloat64()
	}
	return ds, theta
}

func specFor(name string) Spec {
	if name == "maxent" {
		return MaxEntropy{Reg: 0.001, Classes: 10}
	}
	return specsUnderTest()[name]
}

var benchSink float64

// BenchmarkEval times one objective evaluation at compute degree 1 (the
// benchmark's) at the benchmark workloads' shapes: the final train of
// lr-lowdim-mem (20 000 x 28 logistic), the initial train of me-stats-mem
// (2000 x 40, ten classes) and the final train of lr-sparse-store (16 000
// rows of the compact 10 000-feature Criteo).
func BenchmarkEval(b *testing.B) {
	prev := compute.Parallelism()
	compute.SetParallelism(1)
	defer compute.SetParallelism(prev)
	for _, c := range []struct {
		name string
		spec Spec
		data func() (*dataset.Dataset, []float64)
	}{
		{"logistic-20000x28", specFor("logistic"), func() (*dataset.Dataset, []float64) { return benchData("logistic", 20000, 28) }},
		{"maxent-2000x40", specFor("maxent"), func() (*dataset.Dataset, []float64) { return benchData("maxent", 2000, 40) }},
		{"logistic-sparse-16000x10000", specFor("logistic"), func() (*dataset.Dataset, []float64) {
			ds := datagen.Criteo(datagen.Config{Rows: 16000, Dim: 10000, Seed: 1})
			theta := make([]float64, ds.Dim)
			rng := rand.New(rand.NewSource(1))
			for i := range theta {
				theta[i] = 0.1 * rng.NormFloat64()
			}
			return ds, theta
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds, theta := c.data()
			obj := Objective(c.spec, ds)
			grad := make([]float64, len(theta))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += obj.Eval(theta, grad)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ds.Len()), "ns/row")
		})
	}
}

// BenchmarkPredictPerRow times Spec.Predict through the interface one row at
// a time over 20 000 rows — the benchmark's in-process predict op, whose
// latency chain is sensitive to code placement (ROADMAP item 5d).
func BenchmarkPredictPerRow(b *testing.B) {
	for _, name := range []string{"linear", "logistic", "poisson", "maxent"} {
		b.Run(name, func(b *testing.B) {
			d := 28
			if name == "maxent" {
				d = 40
			}
			ds, theta := benchData(name, 20000, d)
			spec := specFor(name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range ds.X {
					benchSink += spec.Predict(theta, x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ds.Len()), "ns/row")
		})
	}
}

// argmax must agree with the comparison loop it replaces on every input,
// the awkward ones included: ties, ±0, ±Inf, NaN anywhere, nothing above −Inf.
func TestArgmaxMatchesComparisonLoop(t *testing.T) {
	reference := func(z []float64) int {
		best, bestZ := 0, math.Inf(-1)
		for c, v := range z {
			if v > bestZ {
				best, bestZ = c, v
			}
		}
		return best
	}
	vals := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, 1 + 1e-15, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		z := make([]float64, 1+rng.Intn(5))
		for i := range z {
			if z[i] = vals[rng.Intn(len(vals))]; rng.Intn(4) == 0 {
				z[i] = rng.NormFloat64()
			}
		}
		if got, want := argmax(z), reference(z); got != want {
			t.Fatalf("argmax(%v) = %d, comparison loop %d", z, got, want)
		}
	}
}
