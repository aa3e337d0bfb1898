package dataset

import (
	"errors"
	"fmt"
	"slices"
)

// DefaultDenseThreshold is the density (nnz / rows·dim) above which the
// sparse representation stops paying: beyond it a dense row is both smaller
// (no index array) and faster to traverse, so ingestion and sample
// materialization fall back to dense rows. Sparse storage costs 12 bytes
// per entry vs 8 per dense slot, so the break-even on size alone is ~2/3;
// 1/4 leaves headroom for the traversal overhead of index indirection.
const DefaultDenseThreshold = 0.25

// CSR is a compressed-sparse-row block: all rows of a sample share one
// contiguous (indptr, indices, values) allocation instead of n per-row
// slices. Row i's entries live at [Indptr[i], Indptr[i+1]). The contiguity
// is what makes repeated full-sample passes (training epochs, Fisher
// accumulation) stream sequentially through memory.
type CSR struct {
	Dim    int
	Indptr []int64 // len rows+1, Indptr[0] == 0, non-decreasing
	Idx    []int32 // len NNZ(), strictly increasing within each row
	Val    []float64
}

// NRows returns the number of rows in the block.
func (c *CSR) NRows() int { return len(c.Indptr) - 1 }

// NNZ returns the total number of stored entries.
func (c *CSR) NNZ() int { return len(c.Idx) }

// Rows returns Row views over the block: one backing array of SparseRow
// headers whose Idx/Val slices alias the shared buffers (two allocations
// total for the whole sample).
func (c *CSR) Rows() []Row {
	n := c.NRows()
	hdr := make([]SparseRow, n)
	out := make([]Row, n)
	for i := 0; i < n; i++ {
		lo, hi := c.Indptr[i], c.Indptr[i+1]
		hdr[i] = SparseRow{N: c.Dim, Idx: c.Idx[lo:hi:hi], Val: c.Val[lo:hi:hi]}
		out[i] = &hdr[i]
	}
	return out
}

// Validate checks structural invariants: monotone indptr and, per row,
// strictly increasing indices within [0, Dim).
func (c *CSR) Validate() error {
	if len(c.Indptr) == 0 || c.Indptr[0] != 0 {
		return errors.New("dataset: CSR indptr must start at 0")
	}
	if len(c.Idx) != len(c.Val) {
		return fmt.Errorf("dataset: CSR index/value length mismatch %d != %d", len(c.Idx), len(c.Val))
	}
	end := int64(len(c.Idx))
	for i := 0; i < c.NRows(); i++ {
		lo, hi := c.Indptr[i], c.Indptr[i+1]
		if lo > hi || hi > end {
			return fmt.Errorf("dataset: CSR indptr out of order at row %d", i)
		}
		prev := int32(-1)
		for _, j := range c.Idx[lo:hi] {
			if j <= prev || int(j) >= c.Dim {
				return fmt.Errorf("dataset: CSR index %d out of order or out of range [0,%d) in row %d", j, c.Dim, i)
			}
			prev = j
		}
	}
	return nil
}

// NNZ returns the total stored entries across the dataset's rows (dense
// rows count every slot).
func (d *Dataset) NNZ() int64 {
	var nnz int64
	for _, r := range d.X {
		nnz += int64(r.NNZ())
	}
	return nnz
}

// Density returns NNZ / (rows·dim), in [0, 1]. An empty dataset reports 1
// (dense) so threshold comparisons never divide by zero.
func (d *Dataset) Density() float64 {
	if len(d.X) == 0 || d.Dim == 0 {
		return 1
	}
	return float64(d.NNZ()) / (float64(len(d.X)) * float64(d.Dim))
}

// SparsePath reports whether the sparse kernels should run for this row
// set: every row is sparse and the aggregate density is at or below
// DefaultDenseThreshold. Kernels call this once per dataset — the choice is
// per-dataset by measured density, never per-row — and the sparse and dense
// paths produce bit-identical results, so the switch is purely a matter of
// speed.
func SparsePath(rows []Row) bool {
	if len(rows) == 0 {
		return false
	}
	var nnz, total int64
	for _, r := range rows {
		sp, ok := r.(*SparseRow)
		if !ok {
			return false
		}
		nnz += int64(len(sp.Idx))
		total += int64(sp.N)
	}
	if total == 0 {
		return false
	}
	return float64(nnz)/float64(total) <= DefaultDenseThreshold
}

// Compact repacks a dataset whose rows are individually-allocated sparse
// rows into one contiguous CSR block (views shared via CSR.Rows). Datasets
// with any dense row are returned unchanged. The row values are untouched,
// so every downstream computation is bit-identical; only memory layout —
// and therefore cache behavior on full-sample passes — changes.
func Compact(d *Dataset) *Dataset {
	var nnz int64
	for _, r := range d.X {
		sp, ok := r.(*SparseRow)
		if !ok {
			return d
		}
		nnz += int64(len(sp.Idx))
	}
	c := &CSR{
		Dim:    d.Dim,
		Indptr: make([]int64, len(d.X)+1),
		Idx:    make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i, r := range d.X {
		sp := r.(*SparseRow)
		c.Idx = append(c.Idx, sp.Idx...)
		c.Val = append(c.Val, sp.Val...)
		c.Indptr[i+1] = int64(len(c.Idx))
	}
	d.X = c.Rows()
	return d
}

// Densify replaces every sparse row with its dense equivalent. It is the
// auto-dense fallback applied when measured density exceeds the threshold:
// the values are identical, so results are unchanged.
func Densify(d *Dataset) *Dataset {
	for i, r := range d.X {
		if _, ok := r.(DenseRow); ok {
			continue
		}
		buf := make(DenseRow, d.Dim)
		r.AddTo(buf, 1)
		d.X[i] = buf
	}
	return d
}

// FromSparse builds a Dataset from inline sparse rows — the sparse
// counterpart of FromDense for serving-layer requests and cluster task
// payloads. indices[i] must be strictly increasing 0-based feature ids with
// values[i] the matching entries; dim 0 infers the dimension from the
// largest index. The rows are packed into one contiguous CSR block, with
// the same density-threshold dense fallback as LibSVM ingestion.
func FromSparse(task Task, dim int, indices [][]int32, values [][]float64, y []float64, classes int) (*Dataset, error) {
	if len(values) != len(indices) {
		return nil, fmt.Errorf("dataset: %d index rows but %d value rows", len(indices), len(values))
	}
	c := &CSR{Dim: dim, Indptr: make([]int64, 1, len(indices)+1), Idx: slices.Concat(indices...), Val: slices.Concat(values...)}
	for i, idx := range indices {
		if len(idx) != len(values[i]) {
			return nil, fmt.Errorf("dataset: row %d has %d indices but %d values", i, len(idx), len(values[i]))
		}
		c.Indptr = append(c.Indptr, c.Indptr[i]+int64(len(idx)))
	}
	return build{name: "inline-sparse", task: task, csr: c, y: y, classes: classes}.dataset()
}
