package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestThinSVDKnownDiagonal(t *testing.T) {
	a := NewDenseFrom(3, 2, []float64{
		3, 0,
		0, 2,
		0, 0,
	})
	s, err := NewThinSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 2 {
		t.Fatalf("rank=%d want 2", s.Rank())
	}
	if !almostEq(s.S[0], 3, tol) || !almostEq(s.S[1], 2, tol) {
		t.Fatalf("singular values %v", s.S)
	}
}

// usvT sums the rank-one terms sⱼ·uⱼ·vⱼᵀ, which must give back A.
func usvT(s *ThinSVD) *Dense {
	ut, vt := s.U.T(), s.V.T()
	m := NewDense(s.U.Rows, s.V.Rows)
	for j, sv := range s.S {
		m.OuterAdd(sv, ut.Row(j), vt.Row(j))
	}
	return m
}

func TestThinSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewDense(4, 3)
	a.OuterAdd(1, []float64{1, 2, 3, 4}, []float64{1, 1, 1})
	s, err := NewThinSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 1 {
		t.Fatalf("rank=%d want 1 (S=%v)", s.Rank(), s.S)
	}
	if !densesAlmostEqual(usvT(s), a, 1e-8) {
		t.Fatal("rank-1 reconstruction failed")
	}
}

// Property: thin SVD reconstructs the matrix and both factors have
// orthonormal columns — for tall, wide, and square shapes.
func TestThinSVDProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(12)
		cols := 1 + r.Intn(12)
		a := randDense(r, rows, cols)
		s, err := NewThinSVD(a, 0)
		if err != nil {
			return false
		}
		if !densesAlmostEqual(usvT(s), a, 1e-6) {
			return false
		}
		k := s.Rank()
		if !densesAlmostEqual(MatMulTransA(s.U, s.U), Identity(k), 1e-7) {
			return false
		}
		if !densesAlmostEqual(MatMulTransA(s.V, s.V), Identity(k), 1e-7) {
			return false
		}
		// Descending singular values, all positive.
		for i := 0; i < k; i++ {
			if s.S[i] <= 0 {
				return false
			}
			if i > 0 && s.S[i] > s.S[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: singular values of A match the square roots of the eigenvalues
// of AᵀA.
func TestThinSVDAgreesWithEig(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a := randDense(r, 9, 5)
	s, err := NewThinSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSymEig(MatMulTransA(a, a))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Rank(); i++ {
		if !almostEq(s.S[i]*s.S[i], e.Values[i], 1e-7) {
			t.Fatalf("s[%d]²=%v eig=%v", i, s.S[i]*s.S[i], e.Values[i])
		}
	}
}

func TestThinSVDWideMatrixUsesRowGram(t *testing.T) {
	// 3 rows, 40 cols: the Gram side must be the 3x3 row Gram matrix. Just
	// verify correctness; the cost asymmetry is what NewThinSVD exploits.
	r := rand.New(rand.NewSource(23))
	a := randDense(r, 3, 40)
	s, err := NewThinSVD(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() > 3 {
		t.Fatalf("rank %d exceeds row count", s.Rank())
	}
	if !densesAlmostEqual(usvT(s), a, 1e-7) {
		t.Fatal("wide reconstruction failed")
	}
}

func TestThinSVDZeroMatrix(t *testing.T) {
	s, err := NewThinSVD(NewDense(4, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 0 {
		t.Fatalf("zero matrix rank=%d", s.Rank())
	}
}
