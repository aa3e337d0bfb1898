package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD returns a random symmetric positive-definite n x n matrix
// AᵀA + I, which is always well-conditioned enough for these tests.
func randSPD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n, n)
	spd := MatMulTransA(a, a)
	spd.AddDiag(1)
	return spd
}

func TestLUSolveKnown(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{2, 1, 1, 3})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.Solve([]float64{5, 10}, x)
	// 2x + y = 5, x + 3y = 10 → x=1, y=3
	if !almostEq(x[0], 1, tol) || !almostEq(x[1], 3, tol) {
		t.Fatalf("solve got %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := NewLU(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square LU")
	}
}

func TestLUDet(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{3, 1, 2, 4})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 10, tol) {
		t.Fatalf("det=%v want 10", f.Det())
	}
}

// Property: A * solve(A, b) == b for random well-conditioned A.
func TestLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		b := randVec(r, n)
		lu, err := NewLU(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(b, x)
		back := make([]float64, n)
		a.MulVec(x, back)
		for i := range b {
			if !almostEq(back[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Inverse(A) * A == I.
func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randSPD(r, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return densesAlmostEqual(MatMul(inv, a), Identity(n), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
