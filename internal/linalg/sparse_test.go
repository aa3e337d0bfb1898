package linalg

import (
	"math"
	"testing"

	"blinkml/internal/stat"
)

// randSparse draws a sorted sparse vector with nnz stored entries over dim
// (values include awkward floats so rounding differences would show).
func randSparse(rng *stat.RNG, dim, nnz int) ([]int32, []float64) {
	seen := map[int32]bool{}
	for len(seen) < nnz {
		seen[int32(rng.Intn(dim))] = true
	}
	idx := make([]int32, 0, nnz)
	for j := int32(0); int(j) < dim; j++ {
		if seen[j] {
			idx = append(idx, j)
		}
	}
	val := make([]float64, len(idx))
	for i := range val {
		val[i] = rng.Norm() / 3
	}
	return idx, val
}

func gather(dim int, idx []int32, val []float64) []float64 {
	out := make([]float64, dim)
	for i, j := range idx {
		out[j] = val[i]
	}
	return out
}

// TestSpOuterAddMatchesOuterAdd: accumulating a*x·xᵀ through the sparse
// kernel must leave every matrix cell bit-identical to Dense.OuterAdd on
// the densified vector, across scales including 0 and negatives.
func TestSpOuterAddMatchesOuterAdd(t *testing.T) {
	rng := stat.NewRNG(4)
	const dim = 40
	for _, a := range []float64{1, -0.3, 0.125, 0, 1e-12} {
		sp := NewDense(dim, dim)
		de := NewDense(dim, dim)
		for trial := 0; trial < 50; trial++ {
			idx, val := randSparse(rng, dim, 1+rng.Intn(8))
			if trial%7 == 0 && len(val) > 1 {
				val[0] = 0 // exercise the zero-entry skip
			}
			SpOuterAdd(sp, a, idx, val)
			x := gather(dim, idx, val)
			de.OuterAdd(a, x, x)
		}
		for i := range sp.Data {
			if math.Float64bits(sp.Data[i]) != math.Float64bits(de.Data[i]) {
				t.Fatalf("a=%v: cell %d: %x != %x", a, i, math.Float64bits(sp.Data[i]), math.Float64bits(de.Data[i]))
			}
		}
	}
}
