package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
)

// ingestDataset writes ds as CSV (dense) or LibSVM (sparse) text and
// ingests it into a fresh store.
func ingestDataset(tb testing.TB, ds *dataset.Dataset, format string) *Handle {
	tb.Helper()
	var buf bytes.Buffer
	var err error
	if format == "csv" {
		err = dataset.WriteCSV(&buf, ds)
	} else {
		err = dataset.WriteLibSVM(&buf, ds)
	}
	if err != nil {
		tb.Fatal(err)
	}
	st, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	h, err := st.Ingest(&buf, IngestOptions{Format: format, Task: ds.Task, Dim: ds.Dim})
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// scanned holds rows and labels decoded one record at a time by
// recordByRecord, the independent reference Materialize and Scan are
// checked against.
type scanned struct {
	rows   [][]float64
	labels []float64
}

// decodeAll decodes every row of a handle record by record, straight off
// its files.
func decodeAll(tb testing.TB, h *Handle) scanned {
	tb.Helper()
	rows, index := readFiles(tb, h)
	s, ok := recordByRecord(h, rows, index, span(0, h.man.Rows))
	if !ok {
		tb.Fatal("the store does not decode record by record")
	}
	return s
}

// diff names the first thing in got that differs from the decoded rows at
// idx, bit for bit, or returns "" when nothing does.
func (s scanned) diff(got *dataset.Dataset, idx []int) string {
	if got.Len() != len(idx) || len(got.Y) != len(idx) {
		return "shape"
	}
	for k, i := range idx {
		v := rowVec(got.X[k], got.Dim)
		for j := range v {
			if math.Float64bits(v[j]) != math.Float64bits(s.rows[i][j]) {
				return "row value"
			}
		}
		if math.Float64bits(got.Y[k]) != math.Float64bits(s.labels[i]) {
			return "label"
		}
	}
	return ""
}

// countingReader counts the preads that reach a file.
type countingReader struct {
	r     io.ReaderAt
	reads atomic.Int64
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(p, off)
}

// span returns the row numbers lo, lo+1, …, hi-1.
func span(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

func reversed(idx []int) []int {
	slices.Reverse(idx)
	return idx
}

// TestMaterializeMatchesScan: Materialize's coalesced reads decode the same
// bits as a record-by-record decode of the files, on every layout (a dense
// block, a CSR block, densified sparse records) and for every shape of
// request.
func TestMaterializeMatchesScan(t *testing.T) {
	stores := []struct {
		name   string
		ds     *dataset.Dataset
		format string
		row    func(dataset.Row) bool // the row type Materialize must build
	}{
		{"dense", datagen.Higgs(datagen.Config{Rows: 600, Dim: 28, Seed: 1}), "csv", isDense},
		// 4200 features: a 33 608-byte record, longer than one read window.
		{"dense-wide", datagen.Higgs(datagen.Config{Rows: 6, Dim: 4200, Seed: 2}), "csv", isDense},
		{"sparse-csr", datagen.Criteo(datagen.Config{Rows: 600, Dim: 1000, Seed: 3}), "libsvm", isSparse},
		{"sparse-densified", datagen.Criteo(datagen.Config{Rows: 600, Dim: 100, Seed: 4}), "libsvm", isDense},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			h := ingestDataset(t, st.ds, st.format)
			want := decodeAll(t, h)
			n := h.man.Rows
			requests := map[string][]int{
				"unsorted-duplicates": {n / 2, 3, n - 1, 3, 0, n / 2, 1, n / 3},
				"first-and-last":      {n - 1, 0},
				"one-row":             {n / 2},
				"no-rows":             {},
				"all-rows-reversed":   reversed(span(0, n)),
			}
			if n > 300 {
				// 300 consecutive rows: a run of records longer than a window.
				requests["long-run"] = span(100, 400)
			}
			for name, idx := range requests {
				got, err := h.Materialize(idx)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := want.diff(got, idx); d != "" {
					t.Fatalf("%s: %s differs from the record-by-record decode", name, d)
				}
				for k, r := range got.X {
					if !st.row(r) {
						t.Fatalf("%s: row %d is a %T", name, k, r)
					}
				}
			}
		})
	}
}

func isDense(r dataset.Row) bool  { _, ok := r.(dataset.DenseRow); return ok }
func isSparse(r dataset.Row) bool { _, ok := r.(*dataset.SparseRow); return ok }

// TestMaterializeConcurrent: calls on one handle at once, each with its own
// pooled reader, read the same bits as a record-by-record decode (run it
// under -race).
func TestMaterializeConcurrent(t *testing.T) {
	for _, h := range []*Handle{
		ingestDataset(t, datagen.Higgs(datagen.Config{Rows: 3000, Dim: 28, Seed: 5}), "csv"),
		ingestDataset(t, datagen.Criteo(datagen.Config{Rows: 3000, Dim: 1000, Seed: 6}), "libsvm"),
	} {
		want := decodeAll(t, h)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				p := NewPerm(h.man.Rows, seed)
				idx := make([]int, 2500)
				for i := range idx {
					idx[i] = p.Index(i)
				}
				for rep := 0; rep < 3; rep++ {
					got, err := h.Materialize(idx)
					if err != nil {
						t.Error(err)
						return
					}
					if d := want.diff(got, idx); d != "" {
						t.Errorf("seed %d: %s differs from the record-by-record decode", seed, d)
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
}

// readFiles returns a handle's rows.bin and index.bin bytes.
func readFiles(tb testing.TB, h *Handle) (rows, index []byte) {
	tb.Helper()
	rows, index = make([]byte, h.man.RowBytes), make([]byte, h.man.IndexBytes)
	if _, err := h.rows.ReadAt(rows, 0); err != nil {
		tb.Fatal(err)
	}
	if _, err := h.idx.ReadAt(index, 0); err != nil {
		tb.Fatal(err)
	}
	return rows, index
}

// TestScanMatchesMaterialize: Scan yields, in storage order and across its
// chunks, exactly the rows Materialize builds for the whole store (the same
// row types, the same bits) with every stored label — an unsupervised
// store's too, which Materialize drops — and both equal a record-by-record
// decode.
func TestScanMatchesMaterialize(t *testing.T) {
	higgs := datagen.Higgs(datagen.Config{Rows: 2500, Dim: 28, Seed: 1})
	stores := []struct {
		name   string
		ds     *dataset.Dataset
		format string
		task   dataset.Task
	}{
		{"dense", higgs, "csv", dataset.BinaryClassification},
		// 4200 features: a chunk holds scanBlock/33 600 = 31 rows, not spanChunk.
		{"dense-wide", datagen.Higgs(datagen.Config{Rows: 70, Dim: 4200, Seed: 2}), "csv", dataset.BinaryClassification},
		{"sparse-csr", datagen.Criteo(datagen.Config{Rows: 2100, Dim: 1000, Seed: 3}), "libsvm", dataset.BinaryClassification},
		{"sparse-densified", datagen.Criteo(datagen.Config{Rows: 1100, Dim: 100, Seed: 4}), "libsvm", dataset.BinaryClassification},
		{"multiclass", datagen.MNIST(datagen.Config{Rows: 1500, Dim: 20, Seed: 5}), "csv", dataset.MultiClassification},
		// The labels are stored as written (Higgs's 0s and 1s) and only
		// Scan hands them out.
		{"unsupervised", higgs, "csv", dataset.Unsupervised},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			var text bytes.Buffer
			if err := dataset.WriteText(&text, st.format, st.ds); err != nil {
				t.Fatal(err)
			}
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			h, err := s.Ingest(&text, IngestOptions{Format: st.format, Task: st.task})
			if err != nil {
				t.Fatal(err)
			}
			n := h.man.Rows
			want, err := h.Materialize(span(0, n))
			if err != nil {
				t.Fatal(err)
			}
			ref := decodeAll(t, h)
			var labels []float64
			err = h.Scan(func(i int, row dataset.Row, label float64) error {
				if i != len(labels) {
					t.Fatalf("row %d after %d rows", i, len(labels))
				}
				if fmt.Sprintf("%T", row) != fmt.Sprintf("%T", want.X[i]) || row.NNZ() != want.X[i].NNZ() {
					t.Fatalf("row %d: Scan yields a %T of %d entries, Materialize a %T of %d", i, row, row.NNZ(), want.X[i], want.X[i].NNZ())
				}
				got, mat := rowVec(row, h.man.Dim), rowVec(want.X[i], h.man.Dim)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(mat[j]) || math.Float64bits(got[j]) != math.Float64bits(ref.rows[i][j]) {
						t.Fatalf("row %d feature %d: Scan %v, Materialize %v, record by record %v", i, j, got[j], mat[j], ref.rows[i][j])
					}
				}
				if math.Float64bits(label) != math.Float64bits(ref.labels[i]) || (want.Y != nil && label != want.Y[i]) {
					t.Fatalf("row %d: label %v, stored %v", i, label, ref.labels[i])
				}
				labels = append(labels, label)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(labels) != n {
				t.Fatalf("scanned %d of %d rows", len(labels), n)
			}
			if st.task == dataset.Unsupervised && (want.Y != nil || !slices.Contains(labels, 1)) {
				t.Fatalf("unsupervised store: Materialize labels %v, Scan yields none of the stored 1s", want.Y != nil)
			}
			if h.RowsMaterialized() != int64(n) {
				t.Fatalf("%d rows counted as materialized, want the %d Materialize read (Scan counts none)", h.RowsMaterialized(), n)
			}
		})
	}
}

// TestIndexEntryZeroIsZero: index entry 0 of a valid store is 0. One that
// points elsewhere (here at row 1's record, a valid length) is a store
// error for Materialize, which would otherwise decode row 1's bytes as
// row 0, as it is for Scan.
func TestIndexEntryZeroIsZero(t *testing.T) {
	dir := t.TempDir()
	_, h := ingestCSV(t, dir)
	h = writeIndex(t, dir, h.ID, []uint64{32, 64, 96, 128, 160})
	const want = "index entry 0 points at 32, expected 0"
	for _, idx := range [][]int{{0}, {2, 0}, span(0, 4)} {
		if _, err := h.Materialize(idx); err == nil || !strings.HasPrefix(err.Error(), "store: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("Materialize(%v): err = %v, want a store error containing %q", idx, err, want)
		}
	}
	err := h.Scan(func(int, dataset.Row, float64) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "store: ") || !strings.Contains(err.Error(), want) {
		t.Errorf("Scan: err = %v, want a store error containing %q", err, want)
	}
}

// writeIndex replaces a stored dataset's index.bin with offsets and returns
// the dataset freshly opened.
func writeIndex(t *testing.T, dir, id string, offsets []uint64) *Handle {
	t.Helper()
	var raw []byte
	for _, off := range offsets {
		raw = binary.LittleEndian.AppendUint64(raw, off)
	}
	if err := os.WriteFile(filepath.Join(dir, id, "index.bin"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMaterializeRefusesCorruptIndex: an index entry that lies, or a file
// cut short under an open handle, is a store error — never a panic, and
// never a record decoded from the wrong bytes.
func TestMaterializeRefusesCorruptIndex(t *testing.T) {
	// csvInput's five dense records are 32 bytes each, at 0, 32, 64, 96, 128.
	cases := []struct {
		name    string
		offsets []uint64
		idx     []int
		want    string
	}{
		{"entry-beyond-rows-bin", []uint64{0, 32, 1000, 96, 128}, []int{1}, "corrupt index entry 1 (span 32..1000)"},
		{"end-before-off", []uint64{0, 60, 40, 96, 128}, []int{1}, "corrupt index entry 1 (span 60..40)"},
		{"offset-past-int64", []uint64{0, 32, 64, 1 << 63, 128}, []int{3}, "corrupt index entry 3"},
		// Every span is 32 bytes, a valid record length, so only the order
		// check stands between these offsets and a decode of the wrong bytes
		// (or, in a window sliced without it, a negative slice index).
		{"non-ascending", []uint64{50, 82, 64, 10, 42}, []int{0, 3}, "corrupt index entry 3 (span 10..42 starts before row 0's end 82)"},
		{"non-ascending-unsorted-request", []uint64{50, 82, 64, 10, 42}, []int{3, 0, 3}, "corrupt index entry 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			_, h := ingestCSV(t, dir)
			h = writeIndex(t, dir, h.ID, c.offsets)
			_, err := h.Materialize(c.idx)
			if err == nil || !strings.HasPrefix(err.Error(), "store: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a store error containing %q", err, c.want)
			}
		})
	}

	for _, c := range []struct {
		file string
		size int64
		want string
	}{{"rows.bin", 100, "read rows.bin bytes 128..160"}, {"index.bin", 20, "read index.bin bytes 32..40"}} {
		t.Run(c.file+"-truncated-after-open", func(t *testing.T) {
			dir := t.TempDir()
			_, h := ingestCSV(t, dir)
			if err := os.Truncate(filepath.Join(dir, h.ID, c.file), c.size); err != nil {
				t.Fatal(err)
			}
			_, err := h.Materialize([]int{4})
			if err == nil || !strings.HasPrefix(err.Error(), "store: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a store error containing %q", err, c.want)
			}
		})
	}

	_, h := ingestCSV(t, t.TempDir())
	for _, i := range []int{-1, 5} {
		if _, err := h.Materialize([]int{0, i}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("row %d: err = %v, want out of range", i, err)
		}
	}
}

// TestMaterializeCoalescesReads pins the mechanism: 16 000 of 50 000 dense
// rows cost at most (bytes spanned / window) + (number of runs) preads, a
// few hundred, where reading row by row took two per row. A run is a stretch
// of wanted rows read without a break: a chunk boundary or a gap wider than
// readGap starts a new one, in index.bin and in rows.bin alike.
func TestMaterializeCoalescesReads(t *testing.T) {
	const rows, dim, n = 50000, 28, 16000
	h := ingestDataset(t, datagen.Higgs(datagen.Config{Rows: rows, Dim: dim, Seed: 1}), "csv")
	recLen := int64(8 + 8*dim)
	rowsR, indexR := &countingReader{r: h.rows}, &countingReader{r: h.idx}
	h.rows, h.idx = rowsR, indexR
	p := NewPerm(rows, 7)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = p.Index(i)
	}
	got, err := h.Materialize(idx)
	if err != nil {
		t.Fatal(err)
	}

	sorted := slices.Clone(idx)
	slices.Sort(sorted)
	first, last := int64(sorted[0]), int64(sorted[n-1])
	spanned := (last+1-first)*recLen + min(last+2, rows)*8 - first*8
	runs := int64(0)
	for k, i := range sorted {
		if k%spanChunk == 0 {
			runs += 2
			continue
		}
		gap := int64(i - sorted[k-1] - 1)
		if gap*recLen > readGap {
			runs++
		}
		if gap*8-8 > readGap {
			runs++
		}
	}
	reads := rowsR.reads.Load() + indexR.reads.Load()
	if bound := spanned/readWindow + runs; reads > bound {
		t.Fatalf("%d preads (%d rows.bin, %d index.bin) for %d rows, want at most %d (%d bytes spanned, %d runs)",
			reads, rowsR.reads.Load(), indexR.reads.Load(), n, bound, spanned, runs)
	}
	t.Logf("%d rows in %d preads (%d rows.bin, %d index.bin)", n, reads, rowsR.reads.Load(), indexR.reads.Load())

	// The dense rows are views of one block, in idx order.
	base := uintptr(unsafe.Pointer(&got.X[0].(dataset.DenseRow)[0]))
	for k, r := range got.X {
		if at := uintptr(unsafe.Pointer(&r.(dataset.DenseRow)[0])); at != base+uintptr(k*dim*8) {
			t.Fatalf("row %d is not at its place in the sample's block", k)
		}
	}
}

// fuzzHandle builds a handle over raw rows.bin and index.bin bytes with a
// manifest whose sizes match them: layout 0 is dense, 1 sparse at density 0
// (the CSR block), 2 sparse at density 1 (densified records). It returns
// nil when index holds no whole entry.
func fuzzHandle(rows, index []byte, layout uint8, dim uint16) *Handle {
	n := len(index) / 8
	if n == 0 {
		return nil
	}
	man := Manifest{
		FormatVersion: FormatVersion, Task: dataset.Regression.String(),
		Rows: n, Dim: int(dim)%8192 + 1,
		RowBytes: int64(len(rows)), IndexBytes: int64(8 * n),
	}
	switch layout % 3 {
	case 1:
		man.Sparse = true
	case 2:
		man.Sparse, man.NNZ = true, int64(man.Rows)*int64(man.Dim)
	}
	return &Handle{ID: "d-fuzz", man: man, task: dataset.Regression, rows: bytes.NewReader(rows), idx: bytes.NewReader(index[:8*n])}
}

// recordByRecord decodes the rows at idx one record at a time, straight off
// the index entries, or reports false when the index is not ascending
// inside rows.bin from entry 0 at 0, or a wanted row is out of range or
// fails to decode.
func recordByRecord(h *Handle, rows, index []byte, idx []int) (scanned, bool) {
	entry := func(i int) int64 {
		if i == h.man.Rows {
			return h.man.RowBytes
		}
		return int64(binary.LittleEndian.Uint64(index[8*i:]))
	}
	if entry(0) != 0 {
		return scanned{}, false
	}
	for i := 0; i < h.man.Rows; i++ {
		if off, end := entry(i), entry(i+1); off < 0 || end < off || end > h.man.RowBytes {
			return scanned{}, false
		}
	}
	s := scanned{rows: make([][]float64, h.man.Rows), labels: make([]float64, h.man.Rows)}
	for _, i := range idx {
		if i < 0 || i >= h.man.Rows {
			return scanned{}, false
		}
		row, label, err := decodeRow(rows[entry(i):entry(i+1)], h.man.Sparse, h.man.Dim)
		if err != nil {
			return scanned{}, false
		}
		s.rows[i], s.labels[i] = rowVec(row, h.man.Dim), label
	}
	return s, true
}

// FuzzMaterialize feeds Materialize hostile files: any rows.bin and
// index.bin bytes, each layout, a dim, and a row list (two bytes a row,
// reaching one row past either end). It must return a store error or a
// dataset of len(idx) rows of width Dim whose sparse indices ascend inside
// [0, Dim), and never panic; when the index is ascending inside rows.bin
// from entry 0 at 0 and every wanted record decodes on its own, it must
// succeed with exactly those rows. The committed corpus holds a
// non-ascending index (offsets 50, 82, 64, 10, 42; rows 0 and 3) that
// slices a window at a negative offset unless the order check refuses it,
// and an index whose entry 0 points past a valid record
// (dense-entry-zero-not-zero).
func FuzzMaterialize(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows, index []byte, layout uint8, dim uint16, want []byte) {
		h := fuzzHandle(rows, index, layout, dim)
		if h == nil {
			return
		}
		// A wanted row decodes to at most Dim values and len(rows)/12
		// sparse entries; the cap keeps one call's output small however
		// often a long record is repeated.
		var idx []int
		for k := 0; k+1 < len(want) && (len(idx)+1)*(h.man.Dim+len(rows)/12) <= 1<<18; k += 2 {
			idx = append(idx, int(binary.LittleEndian.Uint16(want[k:]))%(h.man.Rows+2)-1)
		}
		got, err := h.Materialize(idx)
		ref, valid := recordByRecord(h, rows, index, idx)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store: ") {
				t.Fatalf("error without the store prefix: %v", err)
			}
			if valid {
				t.Fatalf("refused a valid index: %v", err)
			}
			return
		}
		if got.Len() != len(idx) || len(got.Y) != len(idx) || got.Dim != h.man.Dim {
			t.Fatalf("%d rows, %d labels, dim %d for %d wanted rows of dim %d", got.Len(), len(got.Y), got.Dim, len(idx), h.man.Dim)
		}
		for k, r := range got.X {
			switch r := r.(type) {
			case dataset.DenseRow:
				if len(r) != h.man.Dim {
					t.Fatalf("row %d has %d values, want %d", k, len(r), h.man.Dim)
				}
			case *dataset.SparseRow:
				if r.N != h.man.Dim || len(r.Idx) != len(r.Val) {
					t.Fatalf("row %d: sparse row of dim %d with %d indices and %d values", k, r.N, len(r.Idx), len(r.Val))
				}
				for j, c := range r.Idx {
					if c < 0 || int(c) >= h.man.Dim || (j > 0 && c <= r.Idx[j-1]) {
						t.Fatalf("row %d: indices %v do not ascend inside [0, %d)", k, r.Idx, h.man.Dim)
					}
				}
			default:
				t.Fatalf("row %d is a %T", k, r)
			}
		}
		if valid {
			if d := ref.diff(got, idx); d != "" {
				t.Fatalf("%s differs from the record-by-record decode", d)
			}
		}
	})
}

// BenchmarkMaterialize times one 16 000-row sample read off a store at the
// benchmark workloads' shapes: dense, 16 000 of 50 000 Higgs rows × 28
// ingested from CSV (serve-ladder's last rungs), and sparse, 16 000 of
// 40 000 Criteo rows × 10 000 from LibSVM (lr-sparse-store's final train,
// a CSR block). reads/op counts the preads that reach the two files.
func BenchmarkMaterialize(b *testing.B) {
	for _, c := range []struct {
		name, format string
		data         func() *dataset.Dataset
	}{
		{"dense-16000of50000x28", "csv", func() *dataset.Dataset {
			return datagen.Higgs(datagen.Config{Rows: 50000, Dim: 28, Seed: 1})
		}},
		{"sparse-16000of40000x10000", "libsvm", func() *dataset.Dataset {
			return datagen.Criteo(datagen.Config{Rows: 40000, Dim: 10000, Seed: 1})
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := ingestDataset(b, c.data(), c.format)
			rowsR, indexR := &countingReader{r: h.rows}, &countingReader{r: h.idx}
			h.rows, h.idx = rowsR, indexR
			p := NewPerm(h.man.Rows, 1)
			idx := make([]int, 16000)
			for i := range idx {
				idx[i] = p.Index(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Materialize(idx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/row")
			b.ReportMetric(float64(rowsR.reads.Load()+indexR.reads.Load())/float64(b.N), "reads/op")
		})
	}
}

// decodeRow parses one record on its own, allocating its row and sharing
// no code with the store's block decoders (decodeDenseInto,
// decodeSparseInto under Materialize and Scan): the record-by-record oracle
// they are checked against. dim is the ambient dimension from the manifest.
func decodeRow(rec []byte, sparse bool, dim int) (dataset.Row, float64, error) {
	if !sparse {
		if len(rec) != 8*(dim+1) {
			return nil, 0, fmt.Errorf("store: dense record has %d bytes, want %d", len(rec), 8*(dim+1))
		}
		vals := make([]float64, dim)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8+8*i:]))
		}
		return dataset.DenseRow(vals), math.Float64frombits(binary.LittleEndian.Uint64(rec)), nil
	}
	if len(rec) < 8 {
		return nil, 0, fmt.Errorf("store: row record truncated (%d bytes)", len(rec))
	}
	label := math.Float64frombits(binary.LittleEndian.Uint64(rec))
	rec = rec[8:]
	if len(rec) < 4 {
		return nil, 0, fmt.Errorf("store: sparse record truncated (%d bytes)", len(rec))
	}
	nnz := int(binary.LittleEndian.Uint32(rec))
	rec = rec[4:]
	if len(rec) != 12*nnz {
		return nil, 0, fmt.Errorf("store: sparse record has %d payload bytes, want %d for nnz=%d", len(rec), 12*nnz, nnz)
	}
	idx := make([]int32, nnz)
	for i := range idx {
		idx[i] = int32(binary.LittleEndian.Uint32(rec[4*i:]))
	}
	vals := make([]float64, nnz)
	rec = rec[4*nnz:]
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:]))
	}
	sp, err := dataset.NewSparseRow(dim, idx, vals)
	if err != nil {
		return nil, 0, fmt.Errorf("store: corrupt sparse record: %w", err)
	}
	return sp, label, nil
}
