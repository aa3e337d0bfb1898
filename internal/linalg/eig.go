package linalg

import (
	"errors"
	"math"
	"sort"
	"time"

	"blinkml/internal/compute"
	"blinkml/internal/obs"
)

// SymEig holds the eigendecomposition of a symmetric matrix:
// A = V * diag(Values) * Vᵀ, with eigenvalues sorted in descending order and
// eigenvectors stored as the COLUMNS of V.
type SymEig struct {
	Values  []float64
	Vectors *Dense // n x n, column j is the eigenvector for Values[j]
}

// ErrNonFinite is returned by the eigensolver for a matrix with an infinite
// or NaN entry, which has no eigendecomposition to compute.
var ErrNonFinite = errors.New("linalg: matrix has a non-finite entry")

// NewSymEig computes the eigendecomposition of the symmetric matrix a. Only
// the symmetric part of a is used, and a is not modified: this is
// SymEigRows on a copy, with the eigenvector rows transposed into columns.
func NewSymEig(a *Dense) (*SymEig, error) {
	v := a.Clone()
	values, err := SymEigRows(v)
	if err != nil {
		return nil, err
	}
	v.TransposeInPlace()
	return &SymEig{Values: values, Vectors: v}, nil
}

// SymEigRows computes the eigendecomposition of the symmetric matrix a in
// place, using Householder tridiagonalization followed by the
// implicit-shift QL iteration (the classical tred2/tql2 pair). It consumes
// a: only a's symmetric part is used, and on return row j of a holds the
// unit eigenvector of values[j], the eigenvalues in descending order. Apart
// from a it allocates O(n). A non-finite entry returns ErrNonFinite.
//
// The O(n³) inner loops — the Householder similarity updates and the
// accumulated Givens rotations — run chunked on the compute pool. Chunk
// decompositions depend only on the problem size and the configured
// parallelism degree, so results are bit-identical across runs at a fixed
// degree (and identical to the serial algorithm at degree 1).
func SymEigRows(a *Dense) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: SymEig of non-square matrix")
	}
	n := a.Rows
	if n == 0 {
		return nil, nil
	}
	// tred2 + tql2 cost ~4n^3 flops (the classical operation-count estimate
	// for the pair); shape-derived, so deterministic in the ledger.
	defer obs.ChargeKernel(time.Now(), 4*int64(n)*int64(n)*int64(n))
	a.Symmetrize()
	if !AllFinite(a.Data) {
		return nil, ErrNonFinite
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(a, d, e)
	// tql2 applies O(n²) Givens rotations to the eigenvector matrix; on the
	// transpose each rotation touches two contiguous rows instead of two
	// strided columns, which dominates the n³ cost.
	a.TransposeInPlace()
	if err := tql2(a, d, e); err != nil {
		return nil, err
	}
	sortEigRows(a, d)
	return d, nil
}

// sortEigRows orders the eigenpairs (d[j], row j of v) by descending
// eigenvalue in place, moving each cycle of the permutation through one
// row of scratch.
func sortEigRows(v *Dense, d []float64) {
	n := len(d)
	// idx[j] is the pair that lands at j.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return d[idx[x]] > d[idx[y]] })
	tmp := make([]float64, n)
	for s := range idx {
		if idx[s] == s {
			continue // in place, or already moved
		}
		copy(tmp, v.Row(s))
		ds := d[s]
		j := s
		for idx[j] != s {
			src := idx[j]
			copy(v.Row(j), v.Row(src))
			d[j] = d[src]
			idx[j] = j
			j = src
		}
		copy(v.Row(j), tmp)
		d[j] = ds
		idx[j] = j
	}
}

// tredGrain is the minimum number of length-~i rows per chunk in tred2's
// O(i²) inner loops: small steps stay serial, large ones split so each
// chunk carries ~64k multiply-adds.
func tredGrain(i int) int {
	g := (1 << 16) / (i + 1)
	if g < 16 {
		g = 16
	}
	return g
}

// tred2 reduces the symmetric matrix stored in v to tridiagonal form using
// Householder reflections, accumulating the orthogonal transformation in v.
// On return d holds the diagonal and e the subdiagonal (e[0] == 0).
// This follows the EISPACK tred2 routine (as popularized by JAMA).
func tred2(v *Dense, d, e []float64) {
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply the similarity transformation: e = V·d over the active
			// lower triangle, walked row-by-row so every inner loop is
			// contiguous. The row loop is a reduction into e, chunked over
			// the pool with per-chunk partials and an ordered tree merge;
			// a single chunk accumulates straight into e, preserving the
			// serial algorithm's exact rounding.
			for j := 0; j < i; j++ {
				v.Set(j, i, d[j])
				e[j] += v.At(j, j) * d[j]
			}
			simTransform(v, d, e, i)
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			// Rank-two update of the active lower triangle: rows are
			// independent, so they chunk across the pool with no change to
			// per-row arithmetic. Small steps skip the pool entirely — the
			// serial call is exactly what the single chunk would run, and
			// skipping it avoids a closure allocation per Householder step.
			if compute.Chunks(i, tredGrain(i)) <= 1 {
				rankTwoUpdate(v, d, e, 0, i)
			} else {
				compute.For(i, tredGrain(i), func(lo, hi int) {
					rankTwoUpdate(v, d, e, lo, hi)
				})
			}
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	buf := make([]float64, 2*n)
	wbuf, u := buf[:n], buf[n:]
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		// Take the Householder vector u = V[:i+1, i+1] out of its column in
		// one strided pass, leaving the zeros the column ends with: the
		// updates below touch only columns [0, i].
		for k := 0; k <= i; k++ {
			u[k], v.Data[k*n+i+1] = v.Data[k*n+i+1], 0
		}
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = u[k] / h
			}
			// V -= d·(uᵀV) as two row-contiguous passes: w = Σ_k u_k·V[k,:]
			// (a chunked reduction), then the independent per-row updates
			// V[k,:] -= d[k]·w.
			w := accumulateW(v, u[:i+1], wbuf)
			if compute.Chunks(i+1, tredGrain(i)) <= 1 {
				applyW(v, d, w, i, 0, i+1)
			} else {
				compute.For(i+1, tredGrain(i), func(lo, hi int) {
					applyW(v, d, w, i, lo, hi)
				})
			}
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// rankTwoUpdate applies tred2's rank-two update to rows [lo, hi) of the
// active lower triangle: V[k, :k+1] -= d·e[k] + e·d[k].
func rankTwoUpdate(v *Dense, d, e []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		rankTwo(v.Row(k)[:k+1], d, e, e[k], d[k])
	}
}

// applyW applies the accumulated transformation V[k, :i+1] -= d[k]·w to
// rows [lo, hi).
func applyW(v *Dense, d, w []float64, i, lo, hi int) {
	for k := lo; k < hi; k++ {
		Axpy(-d[k], w, v.Row(k)[:i+1])
	}
}

// simTransform runs tred2's similarity-transform reduction
// (e[j] += V[k][j]·d[k] for j < k, e[k] += V[k,:k]·d[:k]) over k in
// [1, i), chunked with per-chunk partials merged in tree order.
func simTransform(v *Dense, d, e []float64, i int) {
	chunks := compute.Chunks(i-1, tredGrain(i))
	if chunks <= 1 {
		simRows(v, d, e, 1, i)
		return
	}
	parts := make([][]float64, chunks)
	compute.ForChunksN(i-1, chunks, func(chunk, lo, hi int) {
		part := make([]float64, i)
		simRows(v, d, part, lo+1, hi+1)
		parts[chunk] = part
	})
	Axpy(1, compute.ReduceVecs(parts), e[:i])
}

// simRows adds e[j] += V[k][j]·d[k] for j < k and then e[k] += V[k,:k]·d[:k]
// for each row k in [lo, hi), in k order. Rows go two at a time with their
// dot products as two interleaved chains; every element of e still takes
// row k's add before row k+1's, and row k's dot product before row k+1's
// V[k+1][k]·d[k+1], exactly as one row at a time.
func simRows(v *Dense, d, e []float64, lo, hi int) {
	k := lo
	for ; k+2 <= hi; k += 2 {
		r0, r1 := v.Row(k)[:k], v.Row(k + 1)[:k+1]
		d0, d1 := d[k], d[k+1]
		dd, ee := d[:k], e[:k]
		var a0, a1 float64
		for j, x0 := range r0 {
			x1 := r1[j]
			ee[j] += x0 * d0
			ee[j] += x1 * d1
			a0 += x0 * dd[j]
			a1 += x1 * dd[j]
		}
		e[k] += a0
		x1 := r1[k]
		e[k] += x1 * d1
		a1 += x1 * d[k]
		e[k+1] += a1
	}
	for ; k < hi; k++ {
		row := v.Row(k)[:k]
		dk := d[k]
		var acc float64
		for j, vkj := range row {
			e[j] += vkj * dk
			acc += vkj * d[j]
		}
		e[k] += acc
	}
}

// accumulateW computes w[j] = Σ_k u[k]·V[k, j] over k, j < len(u), as a
// chunked reduction (serial accumulation below the grain), into
// buf[:len(u)] — the first chunk's partial — and returns it.
func accumulateW(v *Dense, u, buf []float64) []float64 {
	m := len(u)
	w := buf[:m]
	Fill(w, 0)
	chunks := compute.Chunks(m, tredGrain(m-1))
	if chunks <= 1 {
		addScaledRows(w, v, u, 0, m)
		return w
	}
	parts := make([][]float64, chunks)
	compute.ForChunksN(m, chunks, func(chunk, lo, hi int) {
		part := w
		if chunk > 0 {
			part = make([]float64, m)
		}
		addScaledRows(part, v, u, lo, hi)
		parts[chunk] = part
	})
	return compute.ReduceVecs(parts)
}

// addScaledRows adds u[k]·V[k, :len(w)] to w for k in [lo, hi) in k order,
// four non-zero coefficients per pass over w; a zero u[k] adds nothing, as
// in Axpy.
func addScaledRows(w []float64, v *Dense, u []float64, lo, hi int) {
	var g rowGroup
	for k := lo; k < hi; k++ {
		if g.add(u[k], v.Row(k)); g.m == 4 {
			g.flush(w)
		}
	}
	g.flush(w)
}

// applyGivens applies the recorded rotation sweep to vt: rotation r acts
// on rows top−r and top−r+1 with coefficients (cs[r], sn[r]). Rotations
// are column-local, so the column range is chunked across the pool; each
// column sees the rotations in the original order, making the result
// bit-identical to the serial sweep at any parallelism degree.
func applyGivens(vt *Dense, top int, cs, sn []float64) {
	nrot := len(cs)
	if nrot == 0 {
		return
	}
	grain := (1 << 15) / (3 * nrot)
	if grain < 32 {
		grain = 32
	}
	if compute.Chunks(vt.Cols, grain) <= 1 {
		givensSweep(vt, top, cs, sn, 0, vt.Cols)
		return
	}
	compute.For(vt.Cols, grain, func(klo, khi int) {
		givensSweep(vt, top, cs, sn, klo, khi)
	})
}

// givensSweep applies the rotation sweep to columns [klo, khi) of vt.
func givensSweep(vt *Dense, top int, cs, sn []float64, klo, khi int) {
	for r := range cs {
		givens(vt.Row(top - r)[klo:khi], vt.Row(top - r + 1)[klo:khi], cs[r], sn[r])
	}
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) with the
// implicit-shift QL method, accumulating eigenvectors into the TRANSPOSED
// matrix vt (row j of vt ends up holding eigenvector j, so every rotation
// works on contiguous memory). Follows the EISPACK tql2 routine; the
// rotation coefficients of each sweep are recorded first and then applied
// in one batched, pool-parallel pass (see applyGivens).
func tql2(vt *Dense, d, e []float64) error {
	n := vt.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	cs := make([]float64, n)
	sn := make([]float64, n)
	f, tst1 := 0.0, 0.0
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m == n {
			// e[n-1] == 0 ends the scan unless tst1 is NaN: the
			// tridiagonal form overflowed.
			return ErrNonFinite
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter > 60 {
					return errors.New("linalg: tql2 failed to converge")
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL sweep: run the scalar recurrence, recording
				// the Givens coefficients.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				nrot := 0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					cs[nrot], sn[nrot] = c, s
					nrot++
				}
				applyGivens(vt, m-1, cs[:nrot], sn[:nrot])
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
