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

// Solve computes x such that A*x = b, writing into dst (len n). dst must
// not alias b: the permutation reads b while dst fills.
func (f *LU) Solve(b, dst []float64) {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	// Apply permutation.
	for i, p := range f.piv {
		dst[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		dst[i] -= Dot(f.lu.Row(i)[:i], dst[:i])
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		dst[i] -= Dot(f.lu.Row(i)[i+1:], dst[i+1:])
		dst[i] /= f.lu.At(i, i)
	}
}

// SolveCols overwrites each column of b with A⁻¹ times it, so b becomes
// A⁻¹B: it consumes b. Columns are independent triangular solves, so they
// run in parallel on the compute pool.
func (f *LU) SolveCols(b *Dense) {
	n := f.lu.Rows
	if b.Rows != n {
		panic("linalg: LU.SolveCols dimension mismatch")
	}
	compute.For(b.Cols, rowGrain(n*n), func(jlo, jhi int) {
		col, sol := make([]float64, n), make([]float64, n)
		for j := jlo; j < jhi; j++ {
			for i := range col {
				col[i] = b.At(i, j)
			}
			f.Solve(col, sol)
			for i, v := range sol {
				b.Set(i, j, v)
			}
		}
	})
}

// SolveRows overwrites each row of b with A⁻¹ times it, so b becomes
// (A⁻¹Bᵀ)ᵀ: it consumes b, and reads its rows as right-hand sides without
// a transposed copy. Rows run in parallel on the compute pool.
func (f *LU) SolveRows(b *Dense) {
	n := f.lu.Rows
	if b.Cols != n {
		panic("linalg: LU.SolveRows dimension mismatch")
	}
	compute.For(b.Rows, rowGrain(n*n), func(jlo, jhi int) {
		rhs := make([]float64, n)
		for j := jlo; j < jhi; j++ {
			copy(rhs, b.Row(j))
			f.Solve(rhs, b.Row(j))
		}
	})
}

// Inverse returns A⁻¹, solved in place on the identity.
func (f *LU) Inverse() *Dense {
	inv := Identity(f.lu.Rows)
	f.SolveCols(inv)
	return inv
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
