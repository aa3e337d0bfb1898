package linalg

import (
	"math/rand"
	"testing"

	"blinkml/internal/compute"
)

func benchMatrix(n, m int) *Dense {
	rng := rand.New(rand.NewSource(1))
	return randDense(rng, n, m)
}

func BenchmarkMatMul64(b *testing.B) {
	a := benchMatrix(64, 64)
	c := benchMatrix(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	a := benchMatrix(256, 256)
	c := benchMatrix(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

func BenchmarkSyrk256(b *testing.B) {
	a := benchMatrix(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Syrk(a)
	}
}

func BenchmarkSyrkTTall(b *testing.B) {
	a := benchMatrix(2048, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SyrkT(a)
	}
}

func BenchmarkSymEig64(b *testing.B) {
	a := benchMatrix(64, 64)
	a.Symmetrize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEig256(b *testing.B) {
	a := benchMatrix(256, 256)
	a.Symmetrize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSymEig(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymEig400 eigensolves at the statistics matrix's size on
// me-stats-mem (ten classes × 40 features, the covariance side's d × d J),
// at degree 1 as the benchmark runs it.
func BenchmarkSymEig400(b *testing.B) {
	prev := compute.Parallelism()
	compute.SetParallelism(1)
	defer compute.SetParallelism(prev)
	a := benchMatrix(400, 400)
	a.Symmetrize()
	v := NewDense(400, 400)
	b.ReportAllocs()
	for b.Loop() {
		copy(v.Data, a.Data)
		if _, err := SymEigRows(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 128)
	rhs := randVec(rng, 128)
	f, err := NewLU(a)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Solve(rhs, dst)
	}
}

// Sparse kernel benchmark: rank-1 update over a ~1%-density operand, the
// shape the sparse Fisher Gram accumulates.

func benchSparseVec(rng *rand.Rand, dim, nnz int) ([]int32, []float64) {
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
		val[i] = rng.NormFloat64()
	}
	return idx, val
}

func BenchmarkSpOuterAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	idx, val := benchSparseVec(rng, 512, 40)
	m := NewDense(512, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SpOuterAdd(m, 0.5, idx, val)
	}
}
