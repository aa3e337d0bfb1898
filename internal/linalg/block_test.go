package linalg

import (
	"math/rand"
	"sync"
	"testing"

	"blinkml/internal/compute"
)

// Naive reference kernels (the pre-refactor triple loops). The blocked
// kernels preserve the per-element accumulation order, so for finite
// inputs the comparison below is exact, not approximate.

func matMulNaive(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, b.Row(k), crow)
		}
	}
	return c
}

func matMulTransANaive(a, b *Dense) *Dense {
	c := NewDense(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(av, brow, c.Row(i))
		}
	}
	return c
}

func matMulTransBNaive(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			crow[j] = Dot(arow, b.Row(j))
		}
	}
	return c
}

// withDegree runs fn at a fixed pool parallelism, restoring it after.
func withDegree(t *testing.T, p int, fn func()) {
	t.Helper()
	prev := compute.Parallelism()
	compute.SetParallelism(p)
	defer compute.SetParallelism(prev)
	fn()
}

// sparsify zeroes a fraction of entries so the skip-zero fast paths and
// the mixed-zero unrolled blocks are both exercised.
func sparsify(rng *rand.Rand, m *Dense, frac float64) {
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = 0
		}
	}
}

func requireEqualDense(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("%s: element %d = %v, want %v (not bit-identical)", name, i, got.Data[i], v)
		}
	}
}

// The blocked kernels must agree exactly with the naive references at
// degenerate and off-block shapes, serial and parallel alike.
func TestBlockedKernelsMatchNaive(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},    // scalar
		{1, 7, 1},    // inner only
		{3, 1, 5},    // rank-1
		{129, 3, 2},  // tall-thin
		{2, 3, 129},  // wide
		{15, 16, 17}, // block-size −1 / ±0 / +1
		{64, 64, 64}, // exact blocks
		{65, 63, 66}, // blocks ±1
		{5, 4096, 3}, // long shared dimension (forces many chunks)
	}
	for _, p := range []int{1, 4} {
		withDegree(t, p, func() {
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for _, sh := range shapes {
				a := randDense(rng, sh.m, sh.k)
				b := randDense(rng, sh.k, sh.n)
				sparsify(rng, a, 0.3)
				requireEqualDense(t, "MatMul", MatMul(a, b), matMulNaive(a, b))

				at := randDense(rng, sh.k, sh.m) // shared dim first for Aᵀ·B
				sparsify(rng, at, 0.3)
				requireEqualDense(t, "MatMulTransA", MatMulTransA(at, b), matMulTransANaive(at, b))
			}
		})
	}
}

func TestSyrkMatchesMatMulTrans(t *testing.T) {
	for _, p := range []int{1, 4} {
		withDegree(t, p, func() {
			rng := rand.New(rand.NewSource(int64(200 + p)))
			for _, sh := range []struct{ m, k int }{
				{1, 1}, {1, 9}, {9, 1}, {17, 5}, {64, 64}, {65, 63}, {33, 200},
			} {
				a := randDense(rng, sh.m, sh.k)
				sparsify(rng, a, 0.25)
				requireEqualDense(t, "Syrk", Syrk(a), matMulTransBNaive(a, a))
				requireEqualDense(t, "SyrkT", SyrkT(a), matMulTransANaive(a, a))
			}
		})
	}
}

// At a fixed parallelism degree the kernels must be bit-deterministic
// across repeated runs.
func TestKernelsDeterministicAtFixedDegree(t *testing.T) {
	withDegree(t, 4, func() {
		rng := rand.New(rand.NewSource(7))
		a := randDense(rng, 120, 80)
		b := randDense(rng, 80, 90)
		first := MatMul(a, b)
		for rep := 0; rep < 3; rep++ {
			requireEqualDense(t, "MatMul-determinism", MatMul(a, b), first)
		}
		g := SyrkT(a)
		for rep := 0; rep < 3; rep++ {
			requireEqualDense(t, "SyrkT-determinism", SyrkT(a), g)
		}
	})
}

// Concurrent Gram computations from many goroutines (the multi-job serve
// pattern) must be safe and consistent; run under -race in CI.
func TestConcurrentGramCalls(t *testing.T) {
	withDegree(t, 4, func() {
		rng := rand.New(rand.NewSource(8))
		a := randDense(rng, 60, 150)
		want := Syrk(a)
		wantT := SyrkT(a)
		var wg sync.WaitGroup
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					var got *Dense
					var ref *Dense
					if j%2 == 0 {
						got, ref = Syrk(a), want
					} else {
						got, ref = SyrkT(a), wantT
					}
					for i, v := range ref.Data {
						if got.Data[i] != v {
							t.Errorf("goroutine %d: concurrent Gram diverged at %d", j, i)
							return
						}
					}
				}
			}(j)
		}
		wg.Wait()
	})
}

func TestSolveMatTransMatchesSolveMat(t *testing.T) {
	withDegree(t, 4, func() {
		rng := rand.New(rand.NewSource(9))
		a := randSPD(rng, 40)
		b := randDense(rng, 25, 40) // X solves A·X = Bᵀ (40x25)
		f, err := NewLU(a)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualDense(t, "SolveMatTrans", f.SolveMatTrans(b), f.SolveMat(b.T()))
	})
}
