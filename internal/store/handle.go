package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"blinkml/internal/dataset"
	"blinkml/internal/obs"
)

// Handle is an open stored dataset: the manifest plus the two data files,
// read with positional preads so concurrent materializations never contend
// on a file offset. A Handle is a dataset.Source — core.Env built on one
// trains out of core, touching only the rows it samples.
type Handle struct {
	// ID is the store-assigned dataset id ("d-000001").
	ID string

	dir  string
	man  Manifest
	task dataset.Task
	rows *os.File
	idx  *os.File
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
	h.rows.Close()
	h.idx.Close()
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

// span returns the [off, end) byte range of row i in rows.bin, checked
// against the file's size.
func (h *Handle) span(i int) (off, end int64, err error) {
	if i < 0 || i >= h.man.Rows {
		return 0, 0, fmt.Errorf("store: %s: row %d out of range [0,%d)", h.ID, i, h.man.Rows)
	}
	var buf [16]byte
	n := 16 // this row's offset and the next one's
	if i == h.man.Rows-1 {
		n = 8 // the last row ends where rows.bin does
		binary.LittleEndian.PutUint64(buf[8:], uint64(h.man.RowBytes))
	}
	if _, err := h.idx.ReadAt(buf[:n], int64(i)*8); err != nil {
		return 0, 0, fmt.Errorf("store: %s: read index: %w", h.ID, err)
	}
	off, end = int64(binary.LittleEndian.Uint64(buf[:8])), int64(binary.LittleEndian.Uint64(buf[8:]))
	if end < off || end > h.man.RowBytes {
		return 0, 0, fmt.Errorf("store: %s: corrupt index entry %d (span %d..%d)", h.ID, i, off, end)
	}
	return off, end, nil
}

// read fills buf (reallocated when too small) with the bytes of row i's
// record, whose span the caller got from span.
func (h *Handle) read(i int, off, end int64, buf []byte) ([]byte, error) {
	if int64(cap(buf)) < end-off {
		buf = make([]byte, end-off)
	}
	buf = buf[:end-off]
	if _, err := h.rows.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: %s: read row %d: %w", h.ID, i, err)
	}
	return buf, nil
}

// record reads row i's encoded record into buf: the one index lookup →
// bounds check → pread every row read goes through. The decoders copy out of
// the record, so callers reading many rows pass the previous buffer back.
func (h *Handle) record(i int, buf []byte) ([]byte, error) {
	off, end, err := h.span(i)
	if err != nil {
		return nil, err
	}
	return h.read(i, off, end, buf)
}

// Row reads a single row by index.
func (h *Handle) Row(i int) (dataset.Row, float64, error) {
	rec, err := h.record(i, nil)
	if err != nil {
		return nil, 0, err
	}
	return decodeRow(rec, h.man.Sparse, h.man.Dim)
}

// Materialize implements dataset.Source: it builds an in-memory dataset of
// exactly the rows at idx, in idx order, reading them in offset order so a
// batch turns into a forward sweep over rows.bin rather than random
// thrashing. Sparse datasets at or below the density threshold land in one
// contiguous CSR block (sized up front from the index spans, no per-row
// allocations); denser ones fall back to dense rows so training takes the
// dense kernels. Safe for concurrent use.
func (h *Handle) Materialize(idx []int) (*dataset.Dataset, error) {
	if max := h.maxMaterialize.Load(); max > 0 && int64(len(idx)) > max {
		return nil, fmt.Errorf("store: %s: materializing %d rows exceeds the %d-row budget", h.ID, len(idx), max)
	}
	start := time.Now()
	ds := &dataset.Dataset{
		Dim:        h.man.Dim,
		Task:       h.task,
		NumClasses: h.man.NumClasses,
		Name:       h.man.Name,
	}
	if h.task != dataset.Unsupervised {
		ds.Y = make([]float64, len(idx))
	}
	// Read in offset order (ascending row index), place in idx order.
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return idx[order[a]] < idx[order[b]] })

	// matBytes is the decoded in-memory footprint of the materialized rows,
	// derived purely from shapes (CSR: 12 bytes per stored entry + the
	// indptr array; dense: dim float64s per row) so the ledger's
	// bytes_materialized field is deterministic at a fixed seed.
	var matBytes int64
	if h.man.Sparse && h.man.Density() <= dataset.DefaultDenseThreshold {
		nnz, err := h.materializeCSR(idx, order, ds)
		if err != nil {
			return nil, err
		}
		matBytes = nnz*12 + int64(len(idx)+1)*8
	} else {
		ds.X = make([]dataset.Row, len(idx))
		var rec []byte
		for _, pos := range order {
			var err error
			if rec, err = h.record(idx[pos], rec); err != nil {
				return nil, err
			}
			row, label, err := h.decodeMaybeDense(idx[pos], rec)
			if err != nil {
				return nil, err
			}
			ds.X[pos] = row
			if ds.Y != nil {
				ds.Y[pos] = label
			}
		}
		matBytes = int64(len(idx)) * int64(h.man.Dim) * 8
	}
	if ds.Y != nil {
		matBytes += int64(len(idx)) * 8
	}
	h.rowsRead.Add(int64(len(idx)))
	// Charge the owning job's ledger, if the calling goroutine is doing
	// attributed work (training); unattributed readers (CLI export) skip.
	obs.BoundLedger().ChargeMaterialize(len(idx), matBytes)
	d := time.Since(start)
	h.matNanos.Add(int64(d))
	if h.obs != nil {
		h.obs.Materialized(len(idx), d)
	}
	return ds, nil
}

// decodeMaybeDense decodes row i's record, densifying sparse records — the
// materialize path for sparse datasets above the density threshold.
func (h *Handle) decodeMaybeDense(i int, rec []byte) (dataset.Row, float64, error) {
	if !h.man.Sparse {
		return decodeRow(rec, false, h.man.Dim)
	}
	row, label, err := decodeSparseDense(rec, h.man.Dim)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %s: row %d: %w", h.ID, i, err)
	}
	return row, label, nil
}

// materializeCSR fills ds with the rows at idx packed into one contiguous
// CSR block. Each record's nnz comes from its index span length alone, so
// the whole block is sized before the first row read and every record
// decodes straight into its slot — no per-row slice allocations, and the
// sample's stored entries end up cache-adjacent for the full-sample passes
// (gradients, Fisher statistics) that dominate training.
func (h *Handle) materializeCSR(idx, order []int, ds *dataset.Dataset) (int64, error) {
	spans := make([][2]int64, len(idx))
	c := &dataset.CSR{Dim: h.man.Dim, Indptr: make([]int64, len(idx)+1)}
	for pos, i := range idx {
		off, end, err := h.span(i)
		if err != nil {
			return 0, err
		}
		nnz, err := sparseRecNNZ(end - off)
		if err != nil {
			return 0, fmt.Errorf("store: %s: row %d: %w", h.ID, i, err)
		}
		spans[pos] = [2]int64{off, end}
		c.Indptr[pos+1] = int64(nnz) // lengths now, offsets after the prefix sum
	}
	for pos := range idx {
		c.Indptr[pos+1] += c.Indptr[pos]
	}
	total := c.Indptr[len(idx)]
	c.Idx = make([]int32, total)
	c.Val = make([]float64, total)
	rec := make([]byte, 0, 4096)
	for _, pos := range order {
		var err error
		if rec, err = h.read(idx[pos], spans[pos][0], spans[pos][1], rec); err != nil {
			return 0, err
		}
		lo, hi := c.Indptr[pos], c.Indptr[pos+1]
		label, err := decodeSparseInto(rec, h.man.Dim, c.Idx[lo:hi], c.Val[lo:hi])
		if err != nil {
			return 0, fmt.Errorf("store: %s: row %d: %w", h.ID, idx[pos], err)
		}
		if ds.Y != nil {
			ds.Y[pos] = label
		}
	}
	ds.X = c.Rows()
	return total, nil
}

// Scan streams every row in storage order through fn with one sequential
// buffered read of rows.bin and one of index.bin — the export path, which
// never holds more than one row in memory and costs no per-row syscalls.
// fn returning an error stops the scan.
func (h *Handle) Scan(fn func(i int, row dataset.Row, label float64) error) error {
	rows := bufio.NewReaderSize(io.NewSectionReader(h.rows, 0, h.man.RowBytes), 1<<20)
	idx := bufio.NewReaderSize(io.NewSectionReader(h.idx, 0, h.man.IndexBytes), 1<<16)
	readOff := func() (int64, error) {
		var b [8]byte
		if _, err := io.ReadFull(idx, b[:]); err != nil {
			return 0, fmt.Errorf("store: %s: read index: %w", h.ID, err)
		}
		return int64(binary.LittleEndian.Uint64(b[:])), nil
	}
	start, err := readOff()
	if err != nil {
		return err
	}
	if start != 0 {
		return fmt.Errorf("store: %s: index entry 0 points at %d, expected 0", h.ID, start)
	}
	for i := 0; i < h.man.Rows; i++ {
		end := h.man.RowBytes
		if i < h.man.Rows-1 {
			if end, err = readOff(); err != nil {
				return err
			}
		}
		if end < start || end > h.man.RowBytes {
			return fmt.Errorf("store: %s: corrupt index entry %d (span %d..%d)", h.ID, i, start, end)
		}
		rec := make([]byte, end-start)
		if _, err := io.ReadFull(rows, rec); err != nil {
			return fmt.Errorf("store: %s: read row %d: %w", h.ID, i, err)
		}
		start = end
		row, label, err := decodeRow(rec, h.man.Sparse, h.man.Dim)
		if err != nil {
			return err
		}
		if err := fn(i, row, label); err != nil {
			return err
		}
	}
	return nil
}

// Verify re-reads both data files and checks their CRC32 checksums against
// the manifest. It is a full sequential read — the `blinkml-data inspect
// -verify` path, not something to run per request.
func (h *Handle) Verify() error {
	check := func(name string, f *os.File, size int64, want uint32) error {
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
