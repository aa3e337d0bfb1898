package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSymEigDiagonal(t *testing.T) {
	a := NewDenseFrom(3, 3, []float64{
		2, 0, 0,
		0, 5, 0,
		0, 0, 1,
	})
	e, err := NewSymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, 1}
	for i, w := range want {
		if !almostEq(e.Values[i], w, tol) {
			t.Fatalf("eigenvalues %v want %v", e.Values, want)
		}
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewDenseFrom(2, 2, []float64{2, 1, 1, 2})
	e, err := NewSymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Values[0], 3, tol) || !almostEq(e.Values[1], 1, tol) {
		t.Fatalf("eigenvalues %v", e.Values)
	}
}

func TestSymEigEmpty(t *testing.T) {
	e, err := NewSymEig(NewDense(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Values) != 0 {
		t.Fatal("expected empty eigenvalues")
	}
}

func TestSymEigNonSquare(t *testing.T) {
	if _, err := NewSymEig(NewDense(2, 3)); err == nil {
		t.Fatal("expected error")
	}
}

// reconstructEig returns V diag(values) Vᵀ.
func reconstructEig(e *SymEig) *Dense {
	n := e.Vectors.Rows
	vd := e.Vectors.Clone()
	for j := 0; j < len(e.Values); j++ {
		for i := 0; i < n; i++ {
			vd.Set(i, j, vd.At(i, j)*e.Values[j])
		}
	}
	return MatMul(vd, e.Vectors.T())
}

// Property: eigendecomposition reconstructs the matrix, eigenvectors are
// orthonormal, and eigenvalues are sorted descending.
func TestSymEigProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randDense(r, n, n)
		a.Symmetrize()
		e, err := NewSymEig(a)
		if err != nil {
			return false
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
			return false
		}
		if !densesAlmostEqual(reconstructEig(e), a, 1e-7) {
			return false
		}
		// VᵀV == I.
		return densesAlmostEqual(MatMulTransA(e.Vectors, e.Vectors), Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: trace(A) == sum of eigenvalues; eigenvalues of AᵀA+I are >= 1.
func TestSymEigTraceAndPSD(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		e, err := NewSymEig(a)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += e.Values[i]
			if e.Values[i] < 1-1e-8 {
				return false
			}
		}
		return almostEq(trace, sum, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymEigEigenvectorEquation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 8
	a := randDense(r, n, n)
	a.Symmetrize()
	e, err := NewSymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = e.Vectors.At(i, j)
		}
		av := make([]float64, n)
		a.MulVec(v, av)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-e.Values[j]*v[i]) > 1e-7 {
				t.Fatalf("A v != λ v for eigenpair %d: residual %v", j, av[i]-e.Values[j]*v[i])
			}
		}
	}
}
