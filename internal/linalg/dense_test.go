package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func densesAlmostEqual(a, b *Dense, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !almostEq(a.Data[i], b.Data[i], eps) {
			return false
		}
	}
	return true
}

func TestDenseAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set mismatch")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
}

func TestIdentityAndMulVec(t *testing.T) {
	id := Identity(3)
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	id.MulVec(x, dst)
	for i := range x {
		if dst[i] != x[i] {
			t.Fatalf("I*x != x: %v", dst)
		}
	}
}

func TestMulVecKnown(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec([]float64{1, 1, 1}, dst)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec got %v", dst)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(2, 2, []float64{5, 6, 7, 8})
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul got %v want %v", c.Data, want)
		}
	}
}

// Property: MatMulTransA(a,b) == MatMul(aᵀ, b).
func TestMatMulTransVariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randDense(r, k, m)
		b := randDense(r, k, n)
		return densesAlmostEqual(MatMulTransA(a, b), MatMul(a.T(), b), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randDense(r, m, k)
		b := randDense(r, k, n)
		return densesAlmostEqual(MatMul(a, b).T(), MatMul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randDense(r, 4, 7)
	if !densesAlmostEqual(a.T().T(), a, 0) {
		t.Error("transpose is not an involution")
	}
}

func TestAddDiagSymmetrize(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 4, 2, 1})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize got %v", m.Data)
	}
	m.AddDiag(10)
	if m.At(0, 0) != 11 || m.At(1, 1) != 11 {
		t.Fatalf("AddDiag got %v", m.Data)
	}
}

func TestOuterAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.OuterAdd(2, []float64{1, 2}, []float64{3, 4, 5})
	want := []float64{6, 8, 10, 12, 16, 20}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("OuterAdd got %v want %v", m.Data, want)
		}
	}
}

func TestFrobenius(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{3, 0, 0, 4})
	if got := a.FrobeniusNorm(); !almostEq(got, 5, tol) {
		t.Errorf("FrobeniusNorm=%v", got)
	}
	b := NewDense(2, 2)
	if got := FrobeniusDistance(a, b); !almostEq(got, 5, tol) {
		t.Errorf("FrobeniusDistance=%v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseFrom(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

// MulVec runs four rows' dot products side by side; each output must still
// be that row's Dot with x, bit for bit, at every row count around the
// group of four.
func TestMulVecBitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for rows := 0; rows <= 9; rows++ {
		m := randDense(rng, rows, 37)
		x := randVec(rng, 37)
		dst := make([]float64, rows)
		m.MulVec(x, dst)
		for i, got := range dst {
			if want := Dot(m.Row(i), x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rows=%d: dst[%d] = %v, Dot = %v", rows, i, got, want)
			}
		}
	}
}

func TestMulVecPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	NewDense(2, 3).MulVec(make([]float64, 2), make([]float64, 2))
}
