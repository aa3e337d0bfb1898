package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkml/internal/compute"
	"blinkml/internal/linalg"
)

// The max-entropy objective scores its rows with Weights; its loss and
// gradient must still be the per-row loop's (referenceEval, every row
// through ExampleLossGrad) bit for bit: dense rows, CSR rows and a mix of
// both, one chunk and several, class counts on both sides of the fused
// kernels' limit, with the lane kernels on (where the CPU has them) and
// off.
func TestMaxentEvalMatchesPerRow(t *testing.T) {
	prev := compute.Parallelism()
	defer compute.SetParallelism(prev)
	for _, on := range []bool{true, false} {
		for _, layout := range []string{"dense", "csr", "mixed"} {
			for _, k := range []int{3, 10, 17} {
				for _, degree := range []int{1, 3} {
					t.Run(fmt.Sprintf("lanes=%v/%s/k=%d/degree=%d", on, layout, k, degree), func(t *testing.T) {
						defer linalg.SetLanes(on)()
						compute.SetParallelism(degree)
						maxentEvalMatchesPerRow(t, layout, k)
					})
				}
			}
		}
	}
}

func maxentEvalMatchesPerRow(t *testing.T, layout string, k int) {
	rng := rand.New(rand.NewSource(int64(k)))
	ds := tinyMulti(rng, 2*evalGrain+linkBlock+3, 7, k)
	for i, x := range ds.X {
		if layout == "csr" || layout == "mixed" && i%2 == 1 {
			ds.X[i] = sparsify(x)
		}
	}
	spec := MaxEntropy{Reg: 0.01, Classes: k}
	theta := make([]float64, spec.ParamDim(ds))
	for i := range theta {
		theta[i] = 0.3 * rng.NormFloat64()
	}
	got, want := make([]float64, len(theta)), make([]float64, len(theta))
	gotLoss := Objective(spec, ds).Eval(theta, got)
	wantLoss := referenceEval(spec, ds, theta, want)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("loss %v, per-row loop %v", gotLoss, wantLoss)
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("grad[%d] = %v, per-row loop %v", j, got[j], want[j])
		}
	}
}

// Above the fused kernels' sixteen classes, ExampleLossGrad makes a logit
// slice per row; the objective takes one logit scratch per chunk instead, so
// at degree 1 its allocations do not grow with the rows. (Under the race
// detector sync.Pool drops some of what it is given, so the pooled weights
// are occasionally made again: the counts may differ by a fraction.)
func TestMaxentEvalAllocsFlat(t *testing.T) {
	prev := compute.Parallelism()
	defer compute.SetParallelism(prev)
	compute.SetParallelism(1)
	allocs := func(n int) float64 {
		ds := tinyMulti(rand.New(rand.NewSource(1)), n, 5, 40)
		obj := Objective(MaxEntropy{Reg: 0.01, Classes: 40}, ds)
		theta, grad := make([]float64, obj.Dim()), make([]float64, obj.Dim())
		return testing.AllocsPerRun(20, func() { obj.Eval(theta, grad) })
	}
	small, large := allocs(1000), allocs(4000)
	if large-small >= 1 {
		t.Fatalf("Eval allocates %v times at 1000 rows and %v at 4000", small, large)
	}
}
