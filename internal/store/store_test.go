package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blinkml/internal/dataset"
)

// rowVec densifies a row for comparison.
func rowVec(r dataset.Row, dim int) []float64 {
	v := make([]float64, dim)
	r.AddTo(v, 1)
	return v
}

func sameRows(t *testing.T, got, want *dataset.Dataset, label string) {
	t.Helper()
	if got.Len() != want.Len() || got.Dim != want.Dim {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Len(), got.Dim, want.Len(), want.Dim)
	}
	for i := 0; i < got.Len(); i++ {
		a, b := rowVec(got.X[i], got.Dim), rowVec(want.X[i], want.Dim)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: row %d feature %d: %v != %v", label, i, j, a[j], b[j])
			}
		}
	}
	if len(got.Y) != len(want.Y) {
		t.Fatalf("%s: %d labels, want %d", label, len(got.Y), len(want.Y))
	}
	for i := range got.Y {
		if got.Y[i] != want.Y[i] {
			t.Fatalf("%s: label %d: %v != %v", label, i, got.Y[i], want.Y[i])
		}
	}
}

const csvInput = "0.5,-1.25,3,0\n1.5,2.25,-0.75,1\n9,8,7,1\n-1,-2,-3,0\n0.125,0.25,0.5,1\n"

func ingestCSV(t *testing.T, dir string) (*Store, *Handle) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	h, err := st.Ingest(strings.NewReader(csvInput), IngestOptions{
		Name: "tiny", Format: "csv", Task: dataset.BinaryClassification,
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return st, h
}

func TestIngestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, h := ingestCSV(t, dir)

	want, err := dataset.ReadCSV(strings.NewReader(csvInput), -1, dataset.BinaryClassification)
	if err != nil {
		t.Fatalf("readcsv: %v", err)
	}
	man := h.Manifest()
	if man.Rows != 5 || man.Dim != 3 || man.Sparse || man.Task != "binary" {
		t.Fatalf("manifest %+v", man)
	}
	if man.LabelMin != 0 || man.LabelMax != 1 || man.LabelMean != 0.6 {
		t.Fatalf("label stats min=%v max=%v mean=%v", man.LabelMin, man.LabelMax, man.LabelMean)
	}
	idx := make([]int, man.Rows)
	for i := range idx {
		idx[i] = i
	}
	got, err := h.Materialize(idx)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	sameRows(t, got, want, "all rows")

	// Scattered access in non-ascending order.
	got, err = h.Materialize([]int{4, 0, 2})
	if err != nil {
		t.Fatalf("materialize scattered: %v", err)
	}
	sameRows(t, got, want.Subset([]int{4, 0, 2}), "scattered rows")

	if err := h.Verify(); err != nil {
		t.Fatalf("verify fresh ingest: %v", err)
	}
}

func TestIngestLibSVMRoundTrip(t *testing.T) {
	in := "1 1:0.5 3:2\n0 2:1\n1 1:-3 4:0.25\n"
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	h, err := st.Ingest(strings.NewReader(in), IngestOptions{
		Format: "libsvm", Task: dataset.BinaryClassification,
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	man := h.Manifest()
	if !man.Sparse || man.Dim != 4 || man.Rows != 3 || man.NNZ != 5 {
		t.Fatalf("manifest %+v", man)
	}
	want, err := dataset.ReadLibSVM(strings.NewReader(in), 0, dataset.BinaryClassification)
	if err != nil {
		t.Fatalf("readlibsvm: %v", err)
	}
	got, err := h.Materialize([]int{0, 1, 2})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	sameRows(t, got, want, "sparse rows")
	// At 5/12 ≈ 42% density this dataset is above the dense threshold, so
	// materialization falls back to dense rows.
	if _, ok := got.X[0].(dataset.DenseRow); !ok {
		t.Fatalf("above-threshold materialize should densify, got %T", got.X[0])
	}
}

// TestMaterializeSparseCSR: a below-threshold sparse dataset materializes
// into one contiguous CSR block — sparse row views, correct values, correct
// per-row nnz — including out-of-order and repeated-row requests.
func TestMaterializeSparseCSR(t *testing.T) {
	// dim 20, 2 entries per row → 10% density, well under the threshold.
	in := "1 3:0.5 20:2\n0 7:1 9:-4\n1 1:-3 14:0.25\n0 2:8 19:16\n"
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	h, err := st.Ingest(strings.NewReader(in), IngestOptions{
		Format: "libsvm", Task: dataset.BinaryClassification,
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	want, err := dataset.ReadLibSVM(strings.NewReader(in), 0, dataset.BinaryClassification)
	if err != nil {
		t.Fatalf("readlibsvm: %v", err)
	}
	got, err := h.Materialize([]int{2, 0, 3, 1, 2})
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	sameRows(t, got, want.Subset([]int{2, 0, 3, 1, 2}), "csr rows")
	for i, r := range got.X {
		sp, ok := r.(*dataset.SparseRow)
		if !ok {
			t.Fatalf("row %d: want sparse, got %T", i, r)
		}
		if len(sp.Idx) != 2 {
			t.Fatalf("row %d: nnz %d, want 2", i, len(sp.Idx))
		}
	}
	// CSR row views must be capacity-capped so an append through one row
	// cannot clobber the next row's entries in the shared block.
	a := got.X[0].(*dataset.SparseRow)
	if cap(a.Val) != len(a.Val) || cap(a.Idx) != len(a.Idx) {
		t.Fatal("CSR row views are not capacity-capped")
	}
}

// TestSparseCrashSafety: a sparse dataset torn on disk must fail loudly,
// never silently mis-decode. Truncated rows.bin is refused at open; a
// tampered index entry whose span is not a whole sparse record is refused
// at materialize.
func TestSparseCrashSafety(t *testing.T) {
	in := "1 3:0.5 20:2\n0 7:1 9:-4\n1 1:-3 14:0.25\n"
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	h, err := st.Ingest(strings.NewReader(in), IngestOptions{Format: "libsvm", Task: dataset.BinaryClassification})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	id := h.ID

	// Tamper with one index offset so row 1's span has a non-record length.
	idxPath := filepath.Join(dir, id, "index.bin")
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), raw...)
	tampered[8]++ // shift row 1's start offset by one byte
	if err := os.WriteFile(idxPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	h2, err := st2.Get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if _, err := h2.Materialize([]int{0, 1, 2}); err == nil {
		t.Fatal("materialize decoded a torn sparse record")
	}
	if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Truncate rows.bin (a crash mid-write): the size check refuses the
	// handle, so the dataset is skipped rather than served corrupt.
	rowsPath := filepath.Join(dir, id, "rows.bin")
	info, err := os.Stat(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rowsPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after truncate: %v", err)
	}
	if _, err := st3.Get(id); err == nil {
		t.Fatal("truncated sparse dataset served")
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, h := ingestCSV(t, dir)
	id := h.ID
	if got := st.Len(); got != 1 {
		t.Fatalf("len %d", got)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	h2, err := st2.Get(id)
	if err != nil {
		t.Fatalf("get after reopen: %v", err)
	}
	if h2.Manifest().Name != "tiny" {
		t.Fatalf("manifest lost: %+v", h2.Manifest())
	}
	// Seq continues: the next ingest must not collide with the old id.
	h3, err := st2.Ingest(strings.NewReader(csvInput), IngestOptions{Format: "csv", Task: dataset.BinaryClassification})
	if err != nil {
		t.Fatalf("second ingest: %v", err)
	}
	if h3.ID == id {
		t.Fatalf("id %s reissued after reopen", id)
	}
}

func TestDeleteRemovesDiskState(t *testing.T) {
	dir := t.TempDir()
	st, h := ingestCSV(t, dir)
	if err := st.Delete(h.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := st.Get(h.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, h.ID)); !os.IsNotExist(err) {
		t.Fatalf("directory survived delete: %v", err)
	}
	if err := st.Delete(h.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestOpenSweepsCrashedIngest(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "ingest-stale123")
	if err := os.MkdirAll(junk, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatal("crashed ingest dir not swept")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st, h := ingestCSV(t, dir)
	id := h.ID
	// Flip one byte in the middle of rows.bin.
	path := filepath.Join(dir, id, "rows.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	h2, err := st2.Get(id)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := h2.Verify(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestIngestValidation(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   string
		opt  IngestOptions
	}{
		{"bad format", csvInput, IngestOptions{Format: "parquet", Task: dataset.Regression}},
		{"empty input", "", IngestOptions{Format: "csv", Task: dataset.Regression}},
		{"bad binary label", "1,2,7\n", IngestOptions{Format: "csv", Task: dataset.BinaryClassification}},
		{"fractional class", "1,2,1.5\n", IngestOptions{Format: "csv", Task: dataset.MultiClassification}},
		{"class beyond declared", "1,2,5\n", IngestOptions{Format: "csv", Task: dataset.MultiClassification, NumClasses: 3}},
		{"class label past MaxClasses", "1,2,0\n1,2,1e12\n", IngestOptions{Format: "csv", Task: dataset.MultiClassification}},
		{"class count past MaxClasses", "1,2,0\n", IngestOptions{Format: "csv", Task: dataset.MultiClassification, NumClasses: dataset.MaxClasses + 1}},
	}
	for _, c := range cases {
		if _, err := st.Ingest(strings.NewReader(c.in), c.opt); err == nil {
			t.Errorf("%s: ingest accepted", c.name)
		}
	}
	// Failed ingests must leave no residue behind.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed ingests left %d entries on disk", len(entries))
	}
}

// A leading UTF-8 byte-order mark is dropped in both formats: the CSV's
// first row is stored, not skipped as a header, and the LibSVM's first label
// reads.
func TestIngestSkipsByteOrderMark(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ format, in string }{
		{"csv", "\uFEFF1.5,2,1\n3,4,0\n"},
		{"libsvm", "\uFEFF1 1:1.5 2:2\n0 1:3 2:4\n"},
	} {
		h, err := st.Ingest(strings.NewReader(c.in), IngestOptions{Format: c.format, Task: dataset.BinaryClassification})
		if err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		ds, err := h.Materialize([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 2 || ds.Y[0] != 1 || rowVec(ds.X[0], ds.Dim)[0] != 1.5 {
			t.Fatalf("%s: stored rows %v, labels %v; want the marked row first", c.format, ds.X, ds.Y)
		}
	}
}

// TestIngestRefusesNonFiniteFeature: a NaN or ±Inf feature value fails the
// upload with its line, as a bad label does, and leaves nothing on disk.
func TestIngestRefusesNonFiniteFeature(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ format, in, want string }{
		{"csv", "1,2,0\n3,nan,1\n", "store: line 2: feature 1 is NaN"},
		{"csv", "1,2,0\n3,4,1\n-inf,5,0\n", "store: line 3: feature 0 is -Inf"},
		{"libsvm", "1 1:0.5\n0 1:2 3:+Inf\n", "store: line 2: feature 2 is +Inf"},
	} {
		_, err := st.Ingest(strings.NewReader(c.in), IngestOptions{Format: c.format, Task: dataset.BinaryClassification})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %q: err = %v, want %q", c.format, c.in, err, c.want)
		}
	}
	if entries, err := os.ReadDir(st.Dir()); err != nil || len(entries) != 0 {
		t.Fatalf("failed ingests left %d entries on disk (%v)", len(entries), err)
	}
}

// TestIngestRefusesBadLabel: a label the task cannot take fails the upload
// with its line and the store's own wording.
func TestIngestRefusesBadLabel(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in   string
		task dataset.Task
		want string
	}{
		{"1,2,0\n3,4,nan\n", dataset.Regression, "store: line 2: label is not finite"},
		{"1,2,7\n", dataset.BinaryClassification, "store: line 1: binary label is 7 (want 0 or 1)"},
		{"1,2,0\n1,2,1.5\n", dataset.MultiClassification, "store: line 2: class label is 1.5 (want a non-negative integer)"},
		{"1,2,-1\n", dataset.MultiClassification, "store: line 1: class label is -1 (want a non-negative integer)"},
	} {
		_, err := st.Ingest(strings.NewReader(c.in), IngestOptions{Format: "csv", Task: c.task})
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: err = %v, want %q", c.in, err, c.want)
		}
	}
}

func TestScanStreamsInOrder(t *testing.T) {
	_, h := ingestCSV(t, t.TempDir())
	want, _ := dataset.ReadCSV(strings.NewReader(csvInput), -1, dataset.BinaryClassification)
	n := 0
	err := h.Scan(func(i int, row dataset.Row, label float64) error {
		if i != n {
			t.Fatalf("scan order broke: got %d, want %d", i, n)
		}
		a, b := rowVec(row, 3), rowVec(want.X[i], 3)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("scan row %d feature %d: %v != %v", i, j, a[j], b[j])
			}
		}
		if label != want.Y[i] {
			t.Fatalf("scan row %d label %v, want %v", i, label, want.Y[i])
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if n != 5 {
		t.Fatalf("scanned %d rows", n)
	}
}

func TestLimitMaterialize(t *testing.T) {
	_, h := ingestCSV(t, t.TempDir())
	h.LimitMaterialize(2)
	if _, err := h.Materialize([]int{0, 1, 2}); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget not enforced: %v", err)
	}
	if _, err := h.Materialize([]int{0, 1}); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	h.LimitMaterialize(0)
	if _, err := h.Materialize([]int{0, 1, 2, 3, 4}); err != nil {
		t.Fatalf("after lifting budget: %v", err)
	}
}

func TestRowsMaterializedCounter(t *testing.T) {
	_, h := ingestCSV(t, t.TempDir())
	if _, err := h.Materialize([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Materialize([]int{1}); err != nil {
		t.Fatal(err)
	}
	if got := h.RowsMaterialized(); got != 3 {
		t.Fatalf("rows materialized %d, want 3", got)
	}
}

// TestSamplePrefixNests checks the store-level out-of-core sampler: prefix
// nesting across sizes at one seed, difference across seeds, and clamping.
func TestSamplePrefixNests(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&buf, "%d,%d,%d\n", i, 2*i, i%2)
	}
	h, err := st.Ingest(&buf, IngestOptions{Format: "csv", Task: dataset.BinaryClassification})
	if err != nil {
		t.Fatal(err)
	}
	small, err := h.SamplePrefix(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	big, err := h.SamplePrefix(5, 80)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, big.Subset(firstN(20)), small, "prefix")

	other, err := h.SamplePrefix(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := 0; i < 20 && !diff; i++ {
		diff = rowVec(other.X[i], 2)[0] != rowVec(small.X[i], 2)[0]
	}
	if !diff {
		t.Fatal("different seeds drew identical samples")
	}

	clamped, err := h.SamplePrefix(5, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Len() != 200 {
		t.Fatalf("clamped sample has %d rows", clamped.Len())
	}
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestGetAdoptsCrossProcessImport: a second store (standing in for a
// separate process, e.g. the blinkml-data CLI next to a running server)
// ingests into the same directory; the first store must serve the new id
// on Get without reopening — and must not reissue the id afterwards.
func TestGetAdoptsCrossProcessImport(t *testing.T) {
	dir := t.TempDir()
	server, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cli.Ingest(strings.NewReader(csvInput), IngestOptions{Format: "csv", Task: dataset.BinaryClassification})
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := server.Get(h.ID)
	if err != nil {
		t.Fatalf("server did not adopt CLI import: %v", err)
	}
	if adopted.Manifest().Rows != 5 {
		t.Fatalf("adopted manifest %+v", adopted.Manifest())
	}
	// The adoption must also advance the server's id counter.
	h2, err := server.Ingest(strings.NewReader(csvInput), IngestOptions{Format: "csv", Task: dataset.BinaryClassification})
	if err != nil {
		t.Fatalf("ingest after adoption: %v", err)
	}
	if h2.ID == h.ID {
		t.Fatalf("id %s reissued after adoption", h.ID)
	}
	// Hostile ids never touch the filesystem.
	for _, id := range []string{"../evil", "d-../../x", "d-", "m-000001", "d-12a"} {
		if _, err := server.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("id %q: %v", id, err)
		}
	}
}

// TestSeqRecoversFromUnreadableDataset: a directory whose manifest cannot
// be read (future format version) still owns its id — reopening must not
// reissue it.
func TestSeqRecoversFromUnreadableDataset(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "d-000007")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "manifest.json"), []byte(`{"format_version":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Ingest(strings.NewReader(csvInput), IngestOptions{Format: "csv", Task: dataset.BinaryClassification})
	if err != nil {
		t.Fatalf("ingest next to unreadable dataset: %v", err)
	}
	if h.ID != "d-000008" {
		t.Fatalf("id %s, want d-000008 (seq must clear the unreadable d-000007)", h.ID)
	}
}
