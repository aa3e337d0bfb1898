package linalg

import (
	"fmt"
	"math"

	"blinkml/internal/compute"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix;
// use NewDense to allocate one with a shape.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a Rows x Cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps data (row-major) without copying. len(data) must be
// rows*cols.
func NewDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: CopyVec(m.Data)}
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// TransposeInPlace transposes the square matrix m in its own storage,
// swapping across the diagonal one 32 x 32 tile pair at a time so the
// strided side stays in cache.
func (m *Dense) TransposeInPlace() {
	n := m.Rows
	if n != m.Cols {
		panic(fmt.Sprintf("linalg: TransposeInPlace of non-square %dx%d", n, m.Cols))
	}
	const tile = 32
	for ib := 0; ib < n; ib += tile {
		for jb := ib; jb < n; jb += tile {
			for i := ib; i < min(ib+tile, n); i++ {
				for j := max(jb, i+1); j < min(jb+tile, n); j++ {
					m.Data[i*n+j], m.Data[j*n+i] = m.Data[j*n+i], m.Data[i*n+j]
				}
			}
		}
	}
}

// MulVec computes dst = M * x. dst must have length M.Rows and must not
// alias x. Four rows' dot products run as four chains side by side
// (dotRows), each still Dot(M.Row(i), x) bit for bit.
func (m *Dense) MulVec(x, dst []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)*%d->%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	dotRows(x, m, 0, m.Rows, dst)
}

// rowGrain returns the minimum number of output rows per parallel chunk
// so that each chunk carries at least ~32k multiply-adds; it depends only
// on the per-row cost, keeping the chunk decomposition deterministic.
func rowGrain(flopsPerRow int) int {
	if flopsPerRow < 1 {
		flopsPerRow = 1
	}
	g := (1 << 15) / flopsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul returns A * B as a new matrix. Rows of C are computed in
// parallel on the compute pool; within a row the k dimension is walked in
// ascending order (blocked four-wide for cache reuse of C's row), so each
// output element accumulates its sum in the same order as the naive ikj
// kernel and the result is bit-identical to it for finite inputs at any
// parallelism degree.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul shape mismatch (%dx%d)*(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	compute.For(a.Rows, rowGrain(a.Cols*b.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mulAddRow(a.Row(i), b, c.Row(i))
		}
	})
	return c
}

// mulAddRow computes crow += arow · B in k order, four non-zero entries of
// arow per pass over crow. Zero entries skip their B row entirely (the data
// matrices fed through here are often densified sparse rows).
func mulAddRow(arow []float64, b *Dense, crow []float64) {
	var g rowGroup
	for k, av := range arow {
		if g.add(av, b.Row(k)); g.m == 4 {
			g.flush(crow)
		}
	}
	g.flush(crow)
}

// MatMulTransA returns Aᵀ * B as a new matrix, operating on A's original
// row-major layout (no transposed copy is ever materialized). Output rows
// are computed in parallel; per output element the shared dimension is
// accumulated in ascending order, matching the naive kernel bit for bit.
func MatMulTransA(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulTransA shape mismatch (%dx%d)ᵀ*(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Cols, b.Cols)
	compute.For(a.Cols, rowGrain(a.Rows*b.Cols), func(lo, hi int) {
		// Tile the output rows so the C tile stays cache-resident while B
		// streams past it once per tile.
		const tile = 16
		for tlo := lo; tlo < hi; tlo += tile {
			thi := tlo + tile
			if thi > hi {
				thi = hi
			}
			for k := 0; k < a.Rows; k++ {
				arow := a.Row(k)
				brow := b.Row(k)
				for i := tlo; i < thi; i++ {
					if av := arow[i]; av != 0 {
						Axpy(av, brow, c.Row(i))
					}
				}
			}
		}
	})
	return c
}

// dotRows fills crow[j] = arow · b.Row(j) for j in [jlo, jhi), four rows
// of B at a time (four independent accumulator chains per pass).
func dotRows(arow []float64, b *Dense, jlo, jhi int, crow []float64) {
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
		var s0, s1, s2, s3 float64
		for k, av := range arow {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
	}
	for ; j < jhi; j++ {
		crow[j] = Dot(arow, b.Row(j))
	}
}

// ScaleInPlace multiplies every element by a.
func (m *Dense) ScaleInPlace(a float64) { Scale(a, m.Data) }

// AddDiag adds a to every diagonal element (the matrix must be square).
func (m *Dense) AddDiag(a float64) {
	if m.Rows != m.Cols {
		panic("linalg: AddDiag on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += a
	}
}

// Symmetrize replaces m with (m + mᵀ)/2 (the matrix must be square).
func (m *Dense) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Dense) FrobeniusNorm() float64 { return Norm2(m.Data) }

// FrobeniusDistance returns ‖a - b‖_F. The matrices must share a shape.
func FrobeniusDistance(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: FrobeniusDistance shape mismatch")
	}
	var s float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// OuterAdd computes m += a * x*yᵀ, in place.
func (m *Dense) OuterAdd(a float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("linalg: OuterAdd shape mismatch")
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		Axpy(a*xv, y, m.Row(i))
	}
}
