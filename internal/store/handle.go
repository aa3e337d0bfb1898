package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blinkml/internal/dataset"
	"blinkml/internal/obs"
)

// Handle is an open stored dataset: the manifest plus the two data files,
// read with positional preads so concurrent materializations never contend
// on a file offset. A Handle is a dataset.Source — core.Env built on one
// trains out of core: a sample is located through index.bin and read from
// rows.bin in a few coalesced windows, touching only the regions of the
// rows it samples.
type Handle struct {
	// ID is the store-assigned dataset id ("d-000001").
	ID string

	dir  string
	man  Manifest
	task dataset.Task
	// rows and idx read rows.bin and index.bin: the open files, closed
	// with the handle (tests may put any io.ReaderAt in their place).
	rows io.ReaderAt
	idx  io.ReaderAt
	obs  Observer

	rowsRead atomic.Int64
	matNanos atomic.Int64
	// maxMaterialize, when > 0, bounds the rows of a single Materialize
	// call: a guard that turns an accidental full-pool load into a loud
	// error instead of a memory blow-up.
	maxMaterialize atomic.Int64
}

func openHandle(id, dir string, man *Manifest, obs Observer) (*Handle, error) {
	task, err := man.TaskValue()
	if err != nil {
		return nil, err
	}
	rows, err := os.Open(filepath.Join(dir, "rows.bin"))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", id, err)
	}
	idx, err := os.Open(filepath.Join(dir, "index.bin"))
	if err != nil {
		rows.Close()
		return nil, fmt.Errorf("store: open %s: %w", id, err)
	}
	h := &Handle{ID: id, dir: dir, man: *man, task: task, rows: rows, idx: idx, obs: obs}
	if ri, err := rows.Stat(); err == nil && ri.Size() != man.RowBytes {
		h.close()
		return nil, fmt.Errorf("store: %s: rows.bin is %d bytes, manifest says %d", id, ri.Size(), man.RowBytes)
	}
	if ii, err := idx.Stat(); err == nil && ii.Size() != man.IndexBytes {
		h.close()
		return nil, fmt.Errorf("store: %s: index.bin is %d bytes, manifest says %d", id, ii.Size(), man.IndexBytes)
	}
	return h, nil
}

func (h *Handle) close() {
	for _, f := range []io.ReaderAt{h.rows, h.idx} {
		if c, ok := f.(io.Closer); ok {
			c.Close()
		}
	}
}

// Manifest returns a copy of the dataset's manifest.
func (h *Handle) Manifest() Manifest { return h.man }

// DiskBytes returns the dataset's on-disk footprint (rows + index).
func (h *Handle) DiskBytes() int64 { return h.man.RowBytes + h.man.IndexBytes }

// Meta implements dataset.Source.
func (h *Handle) Meta() dataset.Meta {
	return dataset.Meta{
		Name:       h.man.Name,
		Rows:       h.man.Rows,
		Dim:        h.man.Dim,
		Task:       h.task,
		NumClasses: h.man.NumClasses,
	}
}

// RowsMaterialized returns the cumulative number of rows this handle has
// read off disk — the quantity out-of-core training keeps ≪ N. Tests use
// it to assert the pool was never fully materialized.
func (h *Handle) RowsMaterialized() int64 { return h.rowsRead.Load() }

// MaterializeNanos returns the cumulative wall time spent materializing.
func (h *Handle) MaterializeNanos() int64 { return h.matNanos.Load() }

// LimitMaterialize caps the rows of any single Materialize call (0 removes
// the cap). It is the in-memory row budget: with the cap below the pool
// size, any code path that tries to load the whole pool fails loudly.
func (h *Handle) LimitMaterialize(rows int) { h.maxMaterialize.Store(int64(rows)) }

// Materialize reads a sample in a few large reads; these bound them.
const (
	// readWindow is the most bytes one coalesced pread of index.bin or
	// rows.bin covers. A record longer than it is read alone.
	readWindow = 32 << 10
	// readGap is the most unwanted bytes a read spans to join the next
	// wanted range, so a sparse sample never takes more reads than rows.
	readGap = 4 << 10
	// spanChunk is how many rows' spans a walk holds at once, which keeps
	// its scratch O(window), not O(sample).
	spanChunk = 1024
	// scanBlock is about how many bytes of records one Scan chunk reads
	// (one record when a record is longer), so a wide store's export
	// holds O(scanBlock), not spanChunk rows of Dim float64s.
	scanBlock = 1 << 20
)

// Materialize implements dataset.Source: it builds an in-memory dataset of
// exactly the rows at idx, in idx order. The rows are read in ascending row
// order, spanChunk at a time: their index entries in coalesced windows of
// index.bin, then their records in coalesced windows of rows.bin, so a
// sample costs a few large preads rather than two per row. Dense records
// (and sparse ones above the density threshold, densified so training
// takes the dense kernels) decode into one contiguous row-major block in
// idx order; sparse datasets at or below the threshold land in one CSR
// block. Every index entry is checked: in range, inside rows.bin, and,
// across ascending rows, ascending and disjoint, with entry 0 at 0, as a
// valid file always is. Safe for concurrent use.
func (h *Handle) Materialize(idx []int) (*dataset.Dataset, error) {
	if max := h.maxMaterialize.Load(); max > 0 && int64(len(idx)) > max {
		return nil, fmt.Errorf("store: %s: materializing %d rows exceeds the %d-row budget", h.ID, len(idx), max)
	}
	start := time.Now()
	ds := &dataset.Dataset{
		Y:          make([]float64, len(idx)), // stored labels, an unsupervised store's too
		Dim:        h.man.Dim,
		Task:       h.task,
		NumClasses: h.man.NumClasses,
		Name:       h.man.Name,
	}
	// Read in offset order (ascending row index), place in idx order.
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(idx[a], idx[b]) })
	if n := len(order); n > 0 {
		for _, i := range []int{idx[order[0]], idx[order[n-1]]} {
			if i < 0 || i >= h.man.Rows {
				return nil, fmt.Errorf("store: %s: row %d out of range [0,%d)", h.ID, i, h.man.Rows)
			}
		}
	}

	r := readers.Get().(*sampleReader)
	r.h = h
	defer r.release()
	matBytes, err := r.decode(idx, order, ds)
	if err != nil {
		return nil, err
	}
	matBytes += int64(len(idx)) * 8
	h.rowsRead.Add(int64(len(idx)))
	// Charge the owning job's ledger, if the calling goroutine is doing
	// attributed work (training); unattributed readers (CLI sample) skip.
	obs.BoundLedger().ChargeMaterialize(len(idx), matBytes)
	d := time.Since(start)
	h.matNanos.Add(int64(d))
	if h.obs != nil {
		h.obs.Materialized(len(idx), d)
	}
	return ds, nil
}

// sampleReader is one Materialize call's reads: the handle, the one
// scratch buffer every window of index.bin and rows.bin is read into, one
// chunk of spans, and a sparse record's entries on their way into a dense
// row.
type sampleReader struct {
	h     *Handle
	buf   []byte
	spans []rowSpan
	sIdx  []int32
	sVal  []float64
}

// readers keeps sampleReaders between Materialize calls, so a call's
// O(window) scratch is reused and the call allocates only the dataset it
// returns.
var readers = sync.Pool{New: func() any { return new(sampleReader) }}

// release returns r to readers, dropping a window grown past readWindow for
// one long record.
func (r *sampleReader) release() {
	r.h = nil
	if cap(r.buf) > readWindow {
		r.buf = nil
	}
	readers.Put(r)
}

// decode fills ds.X with the rows at idx, visited in order, and ds.Y with
// their stored labels: sparse records at or below
// DefaultDenseThreshold into one CSR block, all others into one dense
// block. It returns the rows' in-memory footprint, derived purely from
// shapes (CSR: 12 bytes per stored entry + the indptr array; dense: dim
// float64s per row) so the ledger's bytes_materialized field is
// deterministic at a fixed seed.
func (r *sampleReader) decode(idx, order []int, ds *dataset.Dataset) (int64, error) {
	if m := &r.h.man; m.Sparse && m.Density() <= dataset.DefaultDenseThreshold {
		nnz, err := r.materializeCSR(idx, order, ds)
		return nnz*12 + int64(len(idx)+1)*8, err
	}
	return int64(len(idx)) * int64(r.h.man.Dim) * 8, r.materializeDense(idx, order, ds)
}

// rowSpan is one wanted position of a sample: its place in idx, its row,
// and the [off, end) byte range of the row's record in rows.bin.
type rowSpan struct {
	pos, row int
	off, end int64
}

// materializeDense decodes the rows at idx into one contiguous row-major
// block, row pos at block[pos·dim:], densifying sparse records.
func (r *sampleReader) materializeDense(idx, order []int, ds *dataset.Dataset) error {
	h, dim := r.h, r.h.man.Dim
	block := make([]float64, len(idx)*dim)
	ds.X = make([]dataset.Row, len(idx))
	decode := decodeDenseInto
	if h.man.Sparse {
		decode = r.densify
	}
	return r.walk(idx, order, true, func(s rowSpan, rec []byte) error {
		row := block[s.pos*dim : (s.pos+1)*dim : (s.pos+1)*dim]
		label, err := decode(rec, row)
		if err != nil {
			return fmt.Errorf("store: %s: row %d: %w", h.ID, s.row, err)
		}
		ds.X[s.pos], ds.Y[s.pos] = dataset.DenseRow(row), label
		return nil
	})
}

// densify decodes a sparse record into row, which holds zeros.
func (r *sampleReader) densify(rec []byte, row []float64) (float64, error) {
	nnz, err := sparseRecNNZ(int64(len(rec)))
	if err != nil {
		return 0, err
	}
	if cap(r.sIdx) < nnz {
		r.sIdx, r.sVal = make([]int32, nnz), make([]float64, nnz)
	}
	idx, val := r.sIdx[:nnz], r.sVal[:nnz]
	label, err := decodeSparseInto(rec, len(row), idx, val)
	if err != nil {
		return 0, err
	}
	for k, j := range idx {
		row[j] = val[k]
	}
	return label, nil
}

// materializeCSR fills ds with the rows at idx packed into one contiguous
// CSR block. A first walk over the index alone takes each record's nnz from
// its span length, so the whole block is sized before the first record is
// read; the second decodes every record straight into its slot — no
// per-row slice allocations, and the sample's stored entries end up
// cache-adjacent for the full-sample passes (gradients, Fisher statistics)
// that dominate training.
func (r *sampleReader) materializeCSR(idx, order []int, ds *dataset.Dataset) (int64, error) {
	h := r.h
	c := &dataset.CSR{Dim: h.man.Dim, Indptr: make([]int64, len(idx)+1)}
	err := r.walk(idx, order, false, func(s rowSpan, _ []byte) error {
		nnz, err := sparseRecNNZ(s.end - s.off)
		if err != nil {
			return fmt.Errorf("store: %s: row %d: %w", h.ID, s.row, err)
		}
		c.Indptr[s.pos+1] = int64(nnz) // lengths now, offsets after the prefix sum
		return nil
	})
	if err != nil {
		return 0, err
	}
	for pos := range idx {
		c.Indptr[pos+1] += c.Indptr[pos]
	}
	total := c.Indptr[len(idx)]
	c.Idx = make([]int32, total)
	c.Val = make([]float64, total)
	err = r.walk(idx, order, true, func(s rowSpan, rec []byte) error {
		lo, hi := c.Indptr[s.pos], c.Indptr[s.pos+1]
		label, err := decodeSparseInto(rec, h.man.Dim, c.Idx[lo:hi], c.Val[lo:hi])
		if err != nil {
			return fmt.Errorf("store: %s: row %d: %w", h.ID, s.row, err)
		}
		ds.Y[s.pos] = label
		return nil
	})
	if err != nil {
		return 0, err
	}
	ds.X = c.Rows()
	return total, nil
}

// walk calls fn for every position in order (positions into idx, sorted by
// row, every row in range) with its row's span and, when records is set,
// the record's bytes, which fn must not keep. It holds spanChunk spans at a
// time: a chunk's index entries are read first and checked, then its
// records. A walk over consecutive rows is ascending across chunks by
// construction: a chunk's first span starts at the entry that ended the
// chunk before.
func (r *sampleReader) walk(idx, order []int, records bool, fn func(s rowSpan, rec []byte) error) error {
	h := r.h
	if r.spans == nil {
		r.spans = make([]rowSpan, 0, spanChunk)
	}
	spans := r.spans
	prevRow, prevEnd := -1, int64(0)
	for len(order) > 0 {
		spans = spans[:0]
		for _, pos := range order[:min(spanChunk, len(order))] {
			spans = append(spans, rowSpan{pos: pos, row: idx[pos]})
		}
		order = order[len(spans):]
		if err := r.readSpans(spans); err != nil {
			return err
		}
		// Ascending rows of a valid file have ascending, disjoint spans;
		// the record windows below rely on it.
		for _, s := range spans {
			if s.row != prevRow && s.off < prevEnd {
				return fmt.Errorf("store: %s: corrupt index entry %d (span %d..%d starts before row %d's end %d)", h.ID, s.row, s.off, s.end, prevRow, prevEnd)
			}
			prevRow, prevEnd = s.row, s.end
		}
		if s := spans[0]; s.row == 0 && s.off != 0 {
			return fmt.Errorf("store: %s: index entry 0 points at %d, expected 0", h.ID, s.off)
		}
		if !records {
			for _, s := range spans {
				if err := fn(s, nil); err != nil {
					return err
				}
			}
		} else if err := r.readRecords(spans, fn); err != nil {
			return err
		}
	}
	return nil
}

// readSpans fills the spans of ascending rows from index.bin: row i's
// record is [entry i, entry i+1), or runs to the end of rows.bin for the
// last row.
func (r *sampleReader) readSpans(spans []rowSpan) error {
	h := r.h
	entries := func(k int) (lo, hi int64) { // the entries row k reads
		row := int64(spans[k].row)
		return row * 8, min(row*8+16, h.man.IndexBytes)
	}
	return r.coalesce(h.idx, "index.bin", len(spans), entries, func(k int, b []byte) error {
		s := &spans[k]
		s.off, s.end = int64(binary.LittleEndian.Uint64(b)), h.man.RowBytes
		if len(b) == 16 {
			s.end = int64(binary.LittleEndian.Uint64(b[8:]))
		}
		if s.off < 0 || s.end < s.off || s.end > h.man.RowBytes {
			return fmt.Errorf("store: %s: corrupt index entry %d (span %d..%d)", h.ID, s.row, s.off, s.end)
		}
		return nil
	})
}

// readRecords hands fn the record of each of spans, which must be checked
// ascending and disjoint: every span then lies inside the window it is
// sliced from.
func (r *sampleReader) readRecords(spans []rowSpan, fn func(s rowSpan, rec []byte) error) error {
	record := func(k int) (lo, hi int64) { return spans[k].off, spans[k].end }
	return r.coalesce(r.h.rows, "rows.bin", len(spans), record, func(k int, rec []byte) error {
		return fn(spans[k], rec)
	})
}

// coalesce reads n byte ranges of f whose starts and ends ascend, in as few
// preads as the window allows, and hands fn each range's bytes in order.
// A range joins the read of the ranges before it when it starts at most
// readGap bytes after them and the read stays within readWindow bytes; a
// longer range is read alone. A short read is an error.
func (r *sampleReader) coalesce(f io.ReaderAt, name string, n int, rng func(k int) (lo, hi int64), fn func(k int, b []byte) error) error {
	for a := 0; a < n; {
		start, end := rng(a)
		b := a + 1
		for ; b < n; b++ {
			lo, hi := rng(b)
			if lo-end > readGap || hi-start > readWindow {
				break
			}
			end = hi
		}
		if int64(cap(r.buf)) < end-start {
			r.buf = make([]byte, max(end-start, readWindow))
		}
		win := r.buf[:end-start]
		if got, err := f.ReadAt(win, start); got < len(win) {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("store: %s: read %s bytes %d..%d: %w", r.h.ID, name, start, end, err)
		}
		for k := a; k < b; k++ {
			lo, hi := rng(k)
			if err := fn(k, win[lo-start:hi-start]); err != nil {
				return err
			}
		}
		a = b
	}
	return nil
}

// Scan streams every row in storage order through fn with its stored label
// (an unsupervised store's too) — the export path. It reads consecutive
// chunks of up to spanChunk rows and, on average, scanBlock bytes of
// records through Materialize's coalesced reader and decodes them as Materialize
// does, so it holds one chunk's decoded rows at a time and costs a few
// large preads a chunk. fn may keep the rows; fn returning an error stops
// the scan. Scan counts no materialized rows.
func (h *Handle) Scan(fn func(i int, row dataset.Row, label float64) error) error {
	r := readers.Get().(*sampleReader)
	r.h = h
	defer r.release()
	n := max(1, min(spanChunk, h.man.Rows, int(scanBlock*int64(h.man.Rows)/h.man.RowBytes)))
	idx, order, labels := make([]int, n), make([]int, n), make([]float64, n)
	for lo := 0; lo < h.man.Rows; lo += n {
		m := min(n, h.man.Rows-lo)
		for k := range m {
			idx[k], order[k] = lo+k, k
		}
		ds := &dataset.Dataset{Dim: h.man.Dim, Y: labels[:m]}
		if _, err := r.decode(idx[:m], order[:m], ds); err != nil {
			return err
		}
		for k, row := range ds.X {
			if err := fn(lo+k, row, labels[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify re-reads both data files and checks their CRC32 checksums against
// the manifest. It is a full sequential read — the `blinkml-data inspect
// -verify` path, not something to run per request.
func (h *Handle) Verify() error {
	check := func(name string, f io.ReaderAt, size int64, want uint32) error {
		crc := crc32.NewIEEE()
		if _, err := io.Copy(crc, io.NewSectionReader(f, 0, size)); err != nil {
			return fmt.Errorf("store: %s: verify %s: %w", h.ID, name, err)
		}
		if got := crc.Sum32(); got != want {
			return fmt.Errorf("store: %s: %s checksum %08x, manifest says %08x", h.ID, name, got, want)
		}
		return nil
	}
	if err := check("rows.bin", h.rows, h.man.RowBytes, h.man.RowCRC32); err != nil {
		return err
	}
	return check("index.bin", h.idx, h.man.IndexBytes, h.man.IndexCRC32)
}

// SamplePrefix materializes the first n rows of the seeded pseudorandom
// permutation of [0, Rows) — out-of-core sampling with O(1) index memory
// (see Perm). Samples nest: SamplePrefix(seed, m) is a prefix of
// SamplePrefix(seed, n) for m ≤ n, the same nesting core.Env's SharedSample
// keeps over its pool (which also holds the prefix, so a longer sample reads
// only the rows beyond it; this one re-reads all n). n is clamped to the
// dataset size.
func (h *Handle) SamplePrefix(seed int64, n int) (*dataset.Dataset, error) {
	if n > h.man.Rows {
		n = h.man.Rows
	}
	if n < 1 {
		n = 1
	}
	p := NewPerm(h.man.Rows, seed)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = p.Index(i)
	}
	return h.Materialize(idx)
}
