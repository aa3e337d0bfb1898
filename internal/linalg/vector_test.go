package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEq(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= eps*scale
}

func TestDot(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{nil, nil, 0},
		{[]float64{1}, []float64{2}, 2},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{[]float64{-1, 0.5}, []float64{2, 4}, 0},
	}
	for _, c := range cases {
		if got := Dot(c.x, c.y); !almostEq(got, c.want, tol) {
			t.Errorf("Dot(%v,%v)=%v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestAxpyAndScale(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, y)
	want := []float64{21, 42, 63}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy: got %v want %v", y, want)
		}
	}
	Scale(0.5, y)
	want = []float64{10.5, 21, 31.5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Scale: got %v want %v", y, want)
		}
	}
}

func TestAxpyZeroAIsNoop(t *testing.T) {
	y := []float64{1, 2}
	Axpy(0, []float64{100, 100}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("Axpy with a=0 modified y: %v", y)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5, tol) {
		t.Errorf("Norm2(3,4)=%v want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil)=%v want 0", got)
	}
	// Overflow guard: naive sum of squares would overflow here.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) || !almostEq(got, 1e200*math.Sqrt2, 1e-9) {
		t.Errorf("Norm2 overflow guard failed: %v", got)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{1, -7, 3}); got != 7 {
		t.Errorf("NormInf=%v want 7", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Errorf("NormInf(nil)=%v want 0", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 0, tol) {
		t.Errorf("orthogonal cosine=%v", got)
	}
	if got := Cosine([]float64{2, 2}, []float64{1, 1}); !almostEq(got, 1, tol) {
		t.Errorf("parallel cosine=%v", got)
	}
	if got := Cosine([]float64{1, 1}, []float64{-1, -1}); !almostEq(got, -1, tol) {
		t.Errorf("antiparallel cosine=%v", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine=%v want 0", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Error("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		x, y, z := randVec(r, n), randVec(r, n), randVec(r, n)
		a := r.NormFloat64()
		if !almostEq(Dot(x, y), Dot(y, x), 1e-12) {
			return false
		}
		// Dot(a*x + z, y) == a*Dot(x,y) + Dot(z,y)
		ax := CopyVec(z)
		Axpy(a, x, ax)
		return almostEq(Dot(ax, y), a*Dot(x, y)+Dot(z, y), 1e-9)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ‖x‖₂² == Dot(x, x) and Cauchy-Schwarz |Dot(x,y)| <= ‖x‖‖y‖.
func TestNormProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		x, y := randVec(r, n), randVec(r, n)
		n2 := Norm2(x)
		if !almostEq(n2*n2, Dot(x, x), 1e-9) {
			return false
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
