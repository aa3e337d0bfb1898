package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/stat"
)

// sparseFixture builds a deterministic low-density dataset (nnz stored
// entries per row over dim) with labels fitting the task. The returned
// dataset keeps its sparse CSR representation — density is well below the
// auto-dense threshold.
func sparseFixture(t *testing.T, task dataset.Task, rows, dim, nnz, classes int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := stat.NewRNG(seed)
	indices := make([][]int32, rows)
	values := make([][]float64, rows)
	var y []float64
	if task != dataset.Unsupervised {
		y = make([]float64, rows)
	}
	for i := range indices {
		seen := map[int32]bool{0: true} // always include a bias feature
		for len(seen) < nnz {
			seen[int32(1+rng.Intn(dim-1))] = true
		}
		idx := make([]int32, 0, nnz)
		for j := int32(0); int(j) < dim && len(idx) < nnz; j++ {
			if seen[j] {
				idx = append(idx, j)
			}
		}
		val := make([]float64, len(idx))
		var score float64
		for k := range val {
			val[k] = rng.Norm()
			score += val[k]
		}
		indices[i] = idx
		values[i] = val
		switch task {
		case dataset.Regression:
			y[i] = math.Abs(math.Round(score)) // also serves as a Poisson count
		case dataset.BinaryClassification:
			if score > 0 {
				y[i] = 1
			}
		case dataset.MultiClassification:
			c := int(math.Abs(score)) % classes
			y[i] = float64(c)
		}
	}
	ds, err := dataset.FromSparse(task, dim, indices, values, y, classes)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	if !allSparse(ds.X) {
		t.Fatalf("fixture density %v: FromSparse densified its rows", ds.Density())
	}
	return ds
}

// allSparse reports whether every row is a *dataset.SparseRow, the type the
// sparse kernels follow.
func allSparse(rows []dataset.Row) bool {
	for _, r := range rows {
		if _, ok := r.(*dataset.SparseRow); !ok {
			return false
		}
	}
	return true
}

// densified returns a dense-row copy of ds without touching the original.
func densified(ds *dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{Dim: ds.Dim, Task: ds.Task, NumClasses: ds.NumClasses, Name: ds.Name, Y: ds.Y}
	out.X = make([]dataset.Row, len(ds.X))
	for i, r := range ds.X {
		buf := make(dataset.DenseRow, ds.Dim)
		r.AddTo(buf, 1)
		out.X[i] = buf
	}
	return out
}

// TestSparseDensePathsBitIdentical is the sparse-path determinism contract:
// for every model class and every statistics method it has, training on the
// sparse representation and on its densified copy — same seed, same options
// — must produce bit-identical parameters, the same chosen sample size, and
// the same ε estimate, at degree 1 (exact serial order) and at a fixed
// degree > 1 (chunked kernels). This is what makes storing a row sparse or
// dense purely a performance decision.
func TestSparseDensePathsBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		spec    models.Spec
		task    dataset.Task
		classes int
	}{
		{"linear", models.LinearRegression{Reg: 0.001}, dataset.Regression, 0},
		{"logistic", models.LogisticRegression{Reg: 0.001}, dataset.BinaryClassification, 0},
		{"maxent", models.MaxEntropy{Classes: 3, Reg: 0.001}, dataset.MultiClassification, 3},
		{"poisson", models.PoissonRegression{Reg: 0.001}, dataset.Regression, 0},
		{"ppca", models.NewPPCA(3), dataset.Unsupervised, 0},
	}
	for _, degree := range []int{1, 3} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/degree-%d", c.name, degree), func(t *testing.T) {
				prev := compute.Parallelism()
				compute.SetParallelism(degree)
				defer compute.SetParallelism(prev)

				sp := sparseFixture(t, c.task, 1500, 80, 6, c.classes, 7)
				de := densified(sp)
				methods := []Method{ObservedFisher, InverseGradients}
				if _, ok := c.spec.(models.Hessianer); ok {
					methods = append(methods, ClosedForm)
				}
				for _, method := range methods {
					t.Run(method.String(), func(t *testing.T) {
						opt := Options{Epsilon: 0.05, Seed: 11, InitialSampleSize: 200, K: 30, Method: method}
						rs, err := TrainSourceContext(context.Background(), c.spec, sp, opt)
						if err != nil {
							t.Fatalf("sparse train: %v", err)
						}
						rd, err := TrainSourceContext(context.Background(), c.spec, de, opt)
						if err != nil {
							t.Fatalf("dense train: %v", err)
						}
						if rs.SampleSize != rd.SampleSize {
							t.Fatalf("sample size %d (sparse) vs %d (dense)", rs.SampleSize, rd.SampleSize)
						}
						if math.Float64bits(rs.EstimatedEpsilon) != math.Float64bits(rd.EstimatedEpsilon) {
							t.Fatalf("epsilon %v (sparse) vs %v (dense)", rs.EstimatedEpsilon, rd.EstimatedEpsilon)
						}
						if len(rs.Theta) != len(rd.Theta) {
							t.Fatalf("theta dim %d vs %d", len(rs.Theta), len(rd.Theta))
						}
						for j := range rs.Theta {
							if math.Float64bits(rs.Theta[j]) != math.Float64bits(rd.Theta[j]) {
								t.Fatalf("theta[%d] = %x (sparse) vs %x (dense): not bit-identical",
									j, math.Float64bits(rs.Theta[j]), math.Float64bits(rd.Theta[j]))
							}
						}
					})
				}
			})
		}
	}
}

// TestSparseGramConcurrent drives the sparse Fisher Gram (the scratch
// scatter/gather path) at degree 4 from concurrent statistics runs — the
// -race exercise for the per-chunk scratch vectors — and checks repeats are
// bit-identical.
func TestSparseGramConcurrent(t *testing.T) {
	prev := compute.Parallelism()
	compute.SetParallelism(4)
	defer compute.SetParallelism(prev)

	// dim > rows forces the Gram side; low density keeps the rows sparse.
	ds := sparseFixture(t, dataset.BinaryClassification, 150, 400, 8, 0, 5)
	spec := models.LogisticRegression{Reg: 0.01}
	theta := make([]float64, ds.Dim)
	for i := range theta {
		theta[i] = 0.05 * float64(i%7)
	}
	opt := Options{Epsilon: 0.05}.WithDefaults()
	first, err := ComputeStatistics(spec, ds, theta, opt)
	if err != nil {
		t.Fatal(err)
	}
	fg, ok := first.Factor.(*GradFactor)
	if !ok {
		t.Fatalf("expected the Gram-side factor, got %T", first.Factor)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for rep := 0; rep < 3; rep++ {
				again, err := ComputeStatistics(spec, ds, theta, opt)
				if err != nil {
					done <- err
					return
				}
				ag := again.Factor.(*GradFactor)
				if len(ag.m.Data) != len(fg.m.Data) {
					done <- fmt.Errorf("factor shape changed")
					return
				}
				for i := range fg.m.Data {
					if math.Float64bits(ag.m.Data[i]) != math.Float64bits(fg.m.Data[i]) {
						done <- fmt.Errorf("M[%d] differs across concurrent repeats", i)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
