package models

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
	"blinkml/internal/optimize"
)

// ppcaData generates zero-mean data from a true 2-factor PPCA model in d
// dimensions: x = W z + σ ε.
func ppcaData(rng *rand.Rand, n, d int, sigma float64) (*dataset.Dataset, *linalg.Dense) {
	q := 2
	w := linalg.NewDense(d, q)
	w.Set(0, 0, 3)
	w.Set(1, 0, 2)
	w.Set(2, 1, 2.5)
	w.Set(3, 1, -1.5)
	ds := &dataset.Dataset{Dim: d, Task: dataset.Unsupervised, Name: "ppca-synth"}
	z := make([]float64, q)
	for i := 0; i < n; i++ {
		z[0], z[1] = rng.NormFloat64(), rng.NormFloat64()
		row := make(dataset.DenseRow, d)
		for r := 0; r < d; r++ {
			row[r] = linalg.Dot(w.Row(r), z) + sigma*rng.NormFloat64()
		}
		ds.X = append(ds.X, row)
	}
	return ds, w
}

func TestPPCATrainRecoversSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds, trueW := ppcaData(rng, 3000, 6, 0.3)
	spec := NewPPCA(2)
	res, err := Train(spec, ds, nil, optimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The span of the learned loading matrix must match the true span:
	// project each true column onto the learned columns.
	w := linalg.NewDenseFrom(6, 2, res.Theta)
	for col := 0; col < 2; col++ {
		truth := make([]float64, 6)
		for r := 0; r < 6; r++ {
			truth[r] = trueW.At(r, col)
		}
		// cos of angle between truth and its projection onto span(w).
		ginv, err := linalg.Inverse(linalg.MatMulTransA(w, w))
		if err != nil {
			t.Fatal(err)
		}
		wx := make([]float64, 2)
		w.T().MulVec(truth, wx)
		coef := make([]float64, 2)
		ginv.MulVec(wx, coef)
		proj := make([]float64, 6)
		w.MulVec(coef, proj)
		cos := linalg.Cosine(truth, proj)
		if cos < 0.98 {
			t.Fatalf("column %d recovered with cosine %v", col, cos)
		}
	}
	// σ² should be near the true noise variance.
	if s := spec.SigmaSq(); math.Abs(s-0.09) > 0.05 {
		t.Fatalf("sigma² = %v want ≈ 0.09", s)
	}
}

func TestPPCATrainDeterministicSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds, _ := ppcaData(rng, 1000, 5, 0.2)
	a := NewPPCA(2)
	b := NewPPCA(2)
	ta, _, err := a.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := b.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatal("PPCA training is not deterministic")
		}
	}
	// Two models trained on overlapping samples of the same source should
	// be cosine-close thanks to sign canonicalization.
	rng2 := rand.New(rand.NewSource(74))
	ds2, _ := ppcaData(rng2, 1000, 5, 0.2)
	c := NewPPCA(2)
	tc, _, err := c.TrainCustom(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if cos := linalg.Cosine(ta, tc); cos < 0.95 {
		t.Fatalf("independently sampled PPCA models have cosine %v", cos)
	}
}

// The PPCA per-example gradient must match finite differences of the
// per-example negative log-likelihood.
func TestPPCAGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ds, _ := ppcaData(rng, 50, 4, 0.5)
	spec := NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb away from the optimum so the gradient is non-trivial.
	for i := range theta {
		theta[i] += 0.1 * rng.NormFloat64()
	}
	small := ds.Subset([]int{0, 1, 2, 3, 4})
	got := analyticGradSum(spec, small, theta)
	want := fdGrad(spec, small, theta)
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-3*(1+math.Abs(want[j])) {
			t.Fatalf("ppca grad[%d]=%v fd %v", j, got[j], want[j])
		}
	}
}

func TestPPCAGradRowMatchesAccumulated(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ds, _ := ppcaData(rng, 30, 4, 0.5)
	spec := NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range PerExampleGradRows(spec, ds.Subset([]int{0, 1, 2, 3, 4}), theta) {
		got := make([]float64, len(theta))
		row.AddTo(got, 1)
		want := make([]float64, len(theta))
		spec.ExampleLossGrad(theta, ds.X[i], 0, want)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-10 {
				t.Fatalf("row %d grad mismatch at %d", i, j)
			}
		}
	}
}

// At the MLE the mean per-example gradient should be near zero (stationary
// point of the likelihood).
func TestPPCAStationaryAtMLE(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ds, _ := ppcaData(rng, 4000, 5, 0.4)
	spec := NewPPCA(2)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		t.Fatal(err)
	}
	g := analyticGradSum(spec, ds, theta)
	linalg.Scale(1/float64(ds.Len()), g)
	if n := linalg.NormInf(g); n > 0.02 {
		t.Fatalf("mean gradient at MLE = %v, want ≈ 0", n)
	}
}

func TestPPCARejectsBadShapes(t *testing.T) {
	ds := &dataset.Dataset{Dim: 3, Task: dataset.Unsupervised}
	ds.X = append(ds.X, dataset.DenseRow{1, 2, 3})
	spec := NewPPCA(5) // q >= d
	if _, _, err := spec.TrainCustom(ds); err == nil {
		t.Fatal("expected q >= d error")
	}
	spec2 := NewPPCA(2)
	if _, _, err := spec2.TrainCustom(ds); err == nil {
		t.Fatal("expected too-few-rows error")
	}
}

func TestPPCADefaultSigmaBeforeTraining(t *testing.T) {
	spec := NewPPCA(2)
	if spec.SigmaSq() != 1 {
		t.Fatalf("default sigma² = %v want 1", spec.SigmaSq())
	}
}

// TestPPCALossPinnedAtParent pins ExampleLossGrad's loss bits at a fixed θ
// and σ², with and without a gradient buffer, as the commit before log|C|
// moved into the per-θ cache computed them (one LU of M⁻¹ per example).
func TestPPCALossPinnedAtParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the losses were captured on amd64")
	}
	ds, _ := ppcaData(rand.New(rand.NewSource(97)), 20, 6, 0.5)
	spec := NewPPCA(2)
	spec.RestoreSigmaSq(0.7)
	theta := make([]float64, spec.ParamDim(ds))
	for i := range theta {
		theta[i] = 0.3*float64(i%5-2) + 0.1
	}
	grad := make([]float64, len(theta))
	h := fnv.New64a()
	for i, x := range ds.X {
		l := spec.ExampleLossGrad(theta, x, 0, nil)
		if g := spec.ExampleLossGrad(theta, x, 0, grad); math.Float64bits(g) != math.Float64bits(l) {
			t.Fatalf("row %d: loss %v with a gradient buffer, %v without", i, g, l)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(l)))
	}
	const want uint64 = 0x6d301c19733d7180 // the same with GODEBUG=cpu.fma=off
	if got := h.Sum64(); got != want {
		t.Fatalf("the losses' FNV-1a is %#x, the parent computed %#x", got, want)
	}
}

// refPPCATrain is TrainCustom's closed form as it stood on a whole thin SVD
// of the densified data matrix A: the Gram side of the smaller dimension
// eigensolved, every direction with s_j > 10⁻¹⁰·s_max kept, and V formed
// for all of them (Aᵀu_j/s_j on the wide route) before the first q are
// read. It returns θ and σ².
func refPPCATrain(ds *dataset.Dataset, q int) ([]float64, float64) {
	n, d := ds.Len(), ds.Dim
	a := linalg.NewDense(n, d)
	var trace float64
	for i := 0; i < n; i++ {
		row := a.Row(i)
		ds.X[i].AddTo(row, 1)
		trace += linalg.Dot(row, row)
	}
	trace /= float64(n)
	transposed := d > n
	var gram *linalg.Dense
	if transposed {
		gram = linalg.Syrk(a)
	} else {
		gram = linalg.SyrkT(a)
	}
	values, err := linalg.SymEigRows(gram)
	if err != nil {
		panic(err)
	}
	sMax := 0.0
	if len(values) > 0 && values[0] > 0 {
		sMax = math.Sqrt(values[0])
	}
	cut := 1e-10 * sMax
	rank := 0
	for rank < len(values) {
		ev := values[rank]
		if ev <= 0 || math.Sqrt(ev) <= cut {
			break
		}
		rank++
	}
	s := make([]float64, rank)
	small := linalg.NewDense(gram.Rows, rank)
	for j := 0; j < rank; j++ {
		s[j] = math.Sqrt(values[j])
		for i, v := range gram.Row(j) {
			small.Set(i, j, v)
		}
	}
	v := small
	if transposed {
		v = linalg.MatMulTransA(a, small)
		for j := 0; j < rank; j++ {
			inv := 1 / s[j]
			for i := 0; i < v.Rows; i++ {
				v.Set(i, j, v.At(i, j)*inv)
			}
		}
	}
	kept := min(q, rank)
	var topSum float64
	lambda := make([]float64, kept)
	for j := 0; j < kept; j++ {
		lambda[j] = s[j] * s[j] / float64(n)
		topSum += lambda[j]
	}
	sigmaSq := (trace - topSum) / float64(d-q)
	if sigmaSq < 1e-8 {
		sigmaSq = 1e-8
	}
	theta := make([]float64, d*q)
	for j := 0; j < kept; j++ {
		scale := math.Sqrt(math.Max(lambda[j]-sigmaSq, 0))
		maxAbs, sign := 0.0, 1.0
		for i := 0; i < d; i++ {
			x := v.At(i, j)
			if ax := math.Abs(x); ax > maxAbs {
				maxAbs = ax
				if x < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		for i := 0; i < d; i++ {
			theta[i*q+j] = sign * scale * v.At(i, j)
		}
	}
	return theta, sigmaSq
}

// TrainCustom, which forms only the q leading eigenpairs of the smaller Gram
// side, returns the θ and σ² bits of the whole thin SVD it replaced, on the
// tall (d < n), wide (d > n) and square routes, where A's rank is below q
// (5 rows, and 100 rows of rank 2 when σ = 0), on dense and sparse rows, at
// degree 1 and 3.
func TestPPCAEigenpairsMatchThinSVD(t *testing.T) {
	cases := []struct {
		name     string
		n, d, q  int
		sigma    float64
		lowRankQ bool
	}{
		{"tall-300x6", 300, 6, 2, 0.3, false},
		{"tall-2000x80", 2000, 80, 3, 0.5, false},
		{"wide-20x50", 20, 50, 3, 0.5, false},
		{"square-60x60", 60, 60, 4, 0.5, false},
		{"tall-61x60", 61, 60, 4, 0.5, false},
		{"wide-59x60", 59, 60, 4, 0.5, false},
		{"rank-below-q-wide-5x40", 5, 40, 10, 0.5, true},
		{"rank-below-q-tall-100x12", 100, 12, 4, 0, true},
	}
	for _, degree := range []int{1, 3} {
		for _, c := range cases {
			ds, _ := ppcaData(rand.New(rand.NewSource(int64(c.n*c.d))), c.n, c.d, c.sigma)
			for _, rows := range []struct {
				name string
				ds   *dataset.Dataset
			}{{"dense", ds}, {"sparse", sparsified(ds)}} {
				t.Run(fmt.Sprintf("%s/%s/degree-%d", c.name, rows.name, degree), func(t *testing.T) {
					prev := compute.Parallelism()
					compute.SetParallelism(degree)
					defer compute.SetParallelism(prev)
					spec := NewPPCA(c.q)
					theta, _, err := spec.TrainCustom(rows.ds)
					if err != nil {
						t.Fatal(err)
					}
					wantTheta, wantSigmaSq := refPPCATrain(rows.ds, c.q)
					if got := spec.SigmaSq(); math.Float64bits(got) != math.Float64bits(wantSigmaSq) {
						t.Fatalf("σ² = %v, the thin SVD gave %v", got, wantSigmaSq)
					}
					for i, want := range wantTheta {
						if math.Float64bits(theta[i]) != math.Float64bits(want) {
							t.Fatalf("θ[%d] = %v, the thin SVD gave %v", i, theta[i], want)
						}
					}
					if c.lowRankQ {
						// The rank test must have cut: W's last column is zero.
						for i := 0; i < c.d; i++ {
							if theta[i*c.q+c.q-1] != 0 {
								t.Fatalf("rank below q = %d, but W's last column is not zero", c.q)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkPPCATrain times the closed-form PPCA fit with q = 10 on a tall
// sample (2000 x 200, the d x d Gram side) and a wide one (100 x 400, the
// n x n Gram side).
func BenchmarkPPCATrain(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{2000, 200}, {100, 400}} {
		b.Run(fmt.Sprintf("%dx%d", shape.n, shape.d), func(b *testing.B) {
			r := rand.New(rand.NewSource(5))
			ds := &dataset.Dataset{Dim: shape.d, Task: dataset.Unsupervised}
			for i := 0; i < shape.n; i++ {
				row := make(dataset.DenseRow, shape.d)
				for j := range row {
					row[j] = r.NormFloat64()
				}
				ds.X = append(ds.X, row)
			}
			spec := NewPPCA(10)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := spec.TrainCustom(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A dense row as wide as W takes ExampleLossGrad's direct loops, any other
// row the ForEach path; the loss and the gradient must not tell them apart.
// The same values as a SparseRow storing every entry go through ForEach,
// over awkward values, with and without the lane kernels, at a q on each
// side of the stack scratch's limit.
func TestPPCADenseRowMatchesForEach(t *testing.T) {
	for _, on := range []bool{true, false} {
		for _, q := range []int{2, ppcaStackQ + 1} {
			t.Run(fmt.Sprintf("lanes=%v/q=%d", on, q), func(t *testing.T) {
				defer linalg.SetLanes(on)()
				const d = 20
				r := rand.New(rand.NewSource(int64(q)))
				awkward := []float64{0, math.Copysign(0, -1), 5e-324, 1e150, -1e150}
				spec := NewPPCA(q)
				spec.RestoreSigmaSq(0.7)
				theta := make([]float64, d*q)
				for i := range theta {
					theta[i] = 0.3 * r.NormFloat64()
				}
				for row := 0; row < 40; row++ {
					dense := make(dataset.DenseRow, d)
					sp := &dataset.SparseRow{N: d}
					for j := range dense {
						dense[j] = r.NormFloat64()
						if r.Intn(4) == 0 {
							dense[j] = awkward[r.Intn(len(awkward))]
						}
						sp.Idx = append(sp.Idx, int32(j))
						sp.Val = append(sp.Val, dense[j])
					}
					gd, gs := make([]float64, len(theta)), make([]float64, len(theta))
					ld, ls := spec.ExampleLossGrad(theta, dense, 0, gd), spec.ExampleLossGrad(theta, sp, 0, gs)
					if math.Float64bits(ld) != math.Float64bits(ls) {
						t.Fatalf("row %d: dense loss %v, ForEach loss %v", row, ld, ls)
					}
					for j := range gd {
						if math.Float64bits(gd[j]) != math.Float64bits(gs[j]) {
							t.Fatalf("row %d: dense grad[%d] = %v, ForEach %v", row, j, gd[j], gs[j])
						}
					}
				}
			})
		}
	}
}

// PPCA's grads primitive on a dense row reads W, Minv and A from the per-θ
// cache and keeps its q-vectors on the stack: at most two allocations an
// example (none today; two leaves room for the runtime).
func TestPPCAExampleLossGradAllocs(t *testing.T) {
	ds, spec, theta := ppcaGradsData()
	grad := make([]float64, len(theta))
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		spec.ExampleLossGrad(theta, ds.X[i%ds.Len()], 0, grad)
		i++
	}); a > 2 {
		t.Fatalf("ExampleLossGrad allocates %v times an example, want at most 2", a)
	}
}

// ppcaGradsData is a 200 x 40 dense sample with its q = 5 PPCA fit.
func ppcaGradsData() (*dataset.Dataset, *PPCA, []float64) {
	r := rand.New(rand.NewSource(9))
	ds := &dataset.Dataset{Dim: 40, Task: dataset.Unsupervised}
	for i := 0; i < 200; i++ {
		row := make(dataset.DenseRow, ds.Dim)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		ds.X = append(ds.X, row)
	}
	spec := NewPPCA(5)
	theta, _, err := spec.TrainCustom(ds)
	if err != nil {
		panic(err)
	}
	return ds, spec, theta
}

// BenchmarkPPCAExampleLossGrad times PPCA's grads primitive, one example
// with its gradient an op, cycling over a 200 x 40 dense sample at q = 5.
func BenchmarkPPCAExampleLossGrad(b *testing.B) {
	ds, spec, theta := ppcaGradsData()
	grad := make([]float64, len(theta))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		spec.ExampleLossGrad(theta, ds.X[i%ds.Len()], 0, grad)
		i++
	}
}
