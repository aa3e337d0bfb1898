package linalg

import (
	"errors"
	"math"

	"blinkml/internal/compute"
)

// ErrSingular is returned when a factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U, stored
// compactly in lu (unit lower triangle implicit).
type LU struct {
	lu   *Dense
	piv  []int
	sign float64
}

// NewLU factors the square matrix a. The input is not modified.
func NewLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: LU of non-square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n), sign: 1}
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |value| in column k at/below the diagonal.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m != 0 {
				Axpy(-m, lu.Row(k)[k+1:], lu.Row(i)[k+1:])
			}
		}
	}
	return f, nil
}

// Solve computes x such that A*x = b, writing into dst (len n). dst may
// alias b.
func (f *LU) Solve(b, dst []float64) {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	// Apply permutation.
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		x[i] -= Dot(f.lu.Row(i)[:i], x[:i])
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		x[i] -= Dot(f.lu.Row(i)[i+1:], x[i+1:])
		x[i] /= f.lu.At(i, i)
	}
	copy(dst, x)
}

// SolveMat solves A*X = B column by column and returns X. Columns are
// independent triangular solves, so they run in parallel on the compute
// pool.
func (f *LU) SolveMat(b *Dense) *Dense {
	n := f.lu.Rows
	if b.Rows != n {
		panic("linalg: LU.SolveMat dimension mismatch")
	}
	x := NewDense(n, b.Cols)
	compute.For(b.Cols, rowGrain(n*n), func(jlo, jhi int) {
		col := make([]float64, n)
		sol := make([]float64, n)
		for j := jlo; j < jhi; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.At(i, j)
			}
			f.Solve(col, sol)
			for i := 0; i < n; i++ {
				x.Set(i, j, sol[i])
			}
		}
	})
	return x
}

// SolveMatTrans solves A*X = Bᵀ and returns X, reading B's rows directly
// as right-hand sides — the transpose is never materialized, which keeps
// the H⁻¹JH⁻¹ factorization path free of d x d copies.
func (f *LU) SolveMatTrans(b *Dense) *Dense {
	n := f.lu.Rows
	if b.Cols != n {
		panic("linalg: LU.SolveMatTrans dimension mismatch")
	}
	x := NewDense(n, b.Rows)
	compute.For(b.Rows, rowGrain(n*n), func(jlo, jhi int) {
		sol := make([]float64, n)
		for j := jlo; j < jhi; j++ {
			f.Solve(b.Row(j), sol)
			for i := 0; i < n; i++ {
				x.Set(i, j, sol[i])
			}
		}
	})
	return x
}

// Inverse returns A⁻¹.
func (f *LU) Inverse() *Dense {
	return f.SolveMat(Identity(f.lu.Rows))
}

// Det returns det(A).
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Inverse returns a⁻¹ for square a.
func Inverse(a *Dense) (*Dense, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse(), nil
}
