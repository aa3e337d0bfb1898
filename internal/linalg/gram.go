package linalg

import (
	"fmt"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/obs"
)

// Syrk returns the symmetric rank-k product A * Aᵀ (Rows x Rows),
// computing only the upper triangle and mirroring it — half the
// multiply-adds of the full product MatMul(a, a.T()). Triangle rows are
// distributed over the compute pool with cost-balanced ranges. Each
// element accumulates its dot product in ascending k order, and the
// mirrored lower triangle is exactly the value the naive kernel would
// compute there (float multiplication commutes), so the result is
// bit-identical to the naive row-by-row dot products at any parallelism
// degree.
func Syrk(a *Dense) *Dense {
	n := a.Rows
	// n(n+1)k multiply-adds over the upper triangle (k = a.Cols).
	defer obs.ChargeKernel(time.Now(), int64(n)*int64(n+1)*int64(a.Cols))
	c := NewDense(n, n)
	ranges := compute.TriangleRanges(n)
	compute.Run(len(ranges), func(t int) {
		r := ranges[t]
		for i := r.Lo; i < r.Hi; i++ {
			dotRows(a.Row(i), a, i, n, c.Row(i))
		}
	})
	c.MirrorUpper()
	return c
}

// SyrkT returns Aᵀ * A (Cols x Cols) as a symmetric rank-k product: only
// the upper triangle is accumulated, by SyrkUpperAdd (ascending row order,
// so each element matches MatMulTransA(a, a) bit for bit), and then
// mirrored.
func SyrkT(a *Dense) *Dense {
	n := a.Cols
	defer obs.ChargeKernel(time.Now(), int64(n)*int64(n+1)*int64(a.Rows))
	c := NewDense(n, n)
	ranges := compute.TriangleRanges(n)
	compute.Run(len(ranges), func(t int) {
		SyrkUpperAdd(c, a.Data, ranges[t].Lo, ranges[t].Hi)
	})
	c.MirrorUpper()
	return c
}

// SyrkUpperAdd adds Σ_r a_r·a_rᵀ to rows [lo, hi) of the upper triangle of
// the n x n matrix c, where a_r are the rows of the row-major block a
// (len(a) a multiple of n). Up to four rows go per pass over c; each
// element still takes its adds in row order, and a zero coefficient a_r[i]
// adds nothing to row i — the pass takes only the non-zero ones, and a group
// with none skips it — exactly as MatMulTransA(a, a) skips it. So the
// triangle holds that product's bits for a accumulated in one call or in
// consecutive blocks of rows. The lower triangle is not touched
// (MirrorUpper completes it).
func SyrkUpperAdd(c *Dense, a []float64, lo, hi int) {
	n := c.Cols
	if n == 0 {
		return
	}
	if c.Rows != n || len(a)%n != 0 {
		panic(fmt.Sprintf("linalg: SyrkUpperAdd of %d values into %dx%d", len(a), c.Rows, n))
	}
	for r := 0; r < len(a); r += 4 * n {
		blk := a[r:min(r+4*n, len(a))]
		for i := lo; i < hi; i++ {
			var g rowGroup
			for b := 0; b < len(blk); b += n {
				g.add(blk[b+i], blk[b+i:b+n])
			}
			g.flush(c.Data[i*n+i : (i+1)*n])
		}
	}
}

// MirrorUpper copies the strict upper triangle of the square matrix onto
// the lower one, in parallel over row ranges (row i writes column i below
// the diagonal; distinct rows touch disjoint elements). It completes any
// kernel that fills only the upper triangle of a symmetric result.
func (c *Dense) MirrorUpper() {
	n := c.Rows
	if n != c.Cols {
		panic(fmt.Sprintf("linalg: MirrorUpper of non-square %dx%d", n, c.Cols))
	}
	compute.For(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := c.Row(i)
			for j := i + 1; j < n; j++ {
				c.Data[j*n+i] = crow[j]
			}
		}
	})
}
