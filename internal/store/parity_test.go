package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
)

// The text parsers as they stood before the byte-level pass and the shared
// number parser: a per-line string, strings.Split / strings.Fields and
// strconv.ParseFloat per number, a fresh row per line. They are the oracle
// the stream parsers and the ingest are held to, byte for byte and error
// string for error string, apart from the two faults since fixed: a leading
// byte-order mark, and a header after comment or blank lines.

func refLineScanner(r io.Reader, maxLine int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(1<<20, maxLine)), maxLine)
	return sc
}

func refScanErr(sc *bufio.Scanner, format string, lineNo, maxLine int) error {
	err := sc.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("dataset: %s line %d exceeds the %d-byte line cap (raise MaxLineBytes)", format, lineNo+1, maxLine)
	}
	return fmt.Errorf("dataset: reading %s: %w", format, err)
}

func refMaxLine(opt dataset.StreamOptions) int {
	if opt.MaxLineBytes <= 0 {
		return dataset.DefaultMaxLineBytes
	}
	return opt.MaxLineBytes
}

func refLabelCol(opt dataset.StreamOptions) int {
	if opt.LabelCol == nil {
		return -1
	}
	return *opt.LabelCol
}

func refStreamCSV(r io.Reader, opt dataset.StreamOptions, fn func(dataset.RowData) error) error {
	maxLine := refMaxLine(opt)
	sc := refLineScanner(r, maxLine)
	lineNo := 0
	rows := 0
	dim := opt.Dim
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		lc := refLabelCol(opt)
		if lc < 0 {
			lc = len(fields) + lc
		}
		if lc < 0 || lc >= len(fields) {
			return fmt.Errorf("dataset: line %d: label column %d out of range (%d fields)", lineNo, refLabelCol(opt), len(fields))
		}
		vals := make([]float64, 0, len(fields)-1)
		var label float64
		badCol := -1
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				badCol = i
				break
			}
			if i == lc {
				label = v
			} else {
				vals = append(vals, v)
			}
		}
		if badCol >= 0 {
			if lineNo == 1 && rows == 0 {
				continue // header line
			}
			return fmt.Errorf("dataset: line %d, column %d: non-numeric field %q",
				lineNo, badCol+1, strings.TrimSpace(fields[badCol]))
		}
		if dim == 0 {
			dim = len(vals)
		} else if len(vals) != dim {
			return fmt.Errorf("dataset: line %d has %d features, want %d", lineNo, len(vals), dim)
		}
		rows++
		if err := fn(dataset.RowData{Val: vals, Label: label, Line: lineNo}); err != nil {
			return err
		}
	}
	return refScanErr(sc, "CSV", lineNo, maxLine)
}

func refStreamLibSVM(r io.Reader, opt dataset.StreamOptions, fn func(dataset.RowData) error) error {
	maxLine := refMaxLine(opt)
	sc := refLineScanner(r, maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("dataset: line %d, field 1: bad label %q", lineNo, fields[0])
		}
		row := dataset.RowData{Label: label, Line: lineNo}
		prev := int32(-1)
		for k, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return fmt.Errorf("dataset: line %d, field %d: bad pair %q (want index:value)", lineNo, k+2, f)
			}
			idx1, err := strconv.Atoi(f[:colon])
			if err != nil || idx1 < 1 || idx1 > math.MaxInt32 {
				return fmt.Errorf("dataset: line %d, field %d: bad index %q", lineNo, k+2, f[:colon])
			}
			v, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return fmt.Errorf("dataset: line %d, field %d: bad value %q", lineNo, k+2, f[colon+1:])
			}
			idx := int32(idx1 - 1)
			if idx <= prev {
				return fmt.Errorf("dataset: line %d, field %d: index %d not strictly increasing", lineNo, k+2, idx1)
			}
			if opt.Dim > 0 && int(idx) >= opt.Dim {
				return fmt.Errorf("dataset: line %d, field %d: index %d exceeds declared dim %d", lineNo, k+2, idx1, opt.Dim)
			}
			prev = idx
			row.Idx = append(row.Idx, idx)
			row.Val = append(row.Val, v)
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return refScanErr(sc, "LibSVM", lineNo, maxLine)
}

// streamFunc is StreamCSV's and StreamLibSVM's signature.
type streamFunc func(io.Reader, dataset.StreamOptions, func(dataset.RowData) error) error

// parsedRow is one callback's row, copied, with its values as bits so a NaN
// compares equal to itself.
type parsedRow struct {
	Idx   []int32
	Val   []uint64
	Label uint64
	Line  int
}

var errStop = errors.New("stop")

// parse runs stream over body and returns the rows it handed out, copied,
// and its error's text. With stopAt > 0 the callback fails on that row.
func parse(stream streamFunc, body []byte, opt dataset.StreamOptions, stopAt int) ([]parsedRow, string) {
	var rows []parsedRow
	err := stream(bytes.NewReader(body), opt, func(r dataset.RowData) error {
		p := parsedRow{Idx: append([]int32(nil), r.Idx...), Label: math.Float64bits(r.Label), Line: r.Line}
		for _, v := range r.Val {
			p.Val = append(p.Val, math.Float64bits(v))
		}
		rows = append(rows, p)
		if len(rows) == stopAt {
			return errStop
		}
		return nil
	})
	if err != nil {
		return rows, err.Error()
	}
	return rows, ""
}

// checkParity fails t unless stream and ref hand out the same rows, line
// numbers and error text for body.
func checkParity(t *testing.T, stream, ref streamFunc, body []byte, opt dataset.StreamOptions, stopAt int) {
	t.Helper()
	got, gerr := parse(stream, body, opt, stopAt)
	want, werr := parse(ref, body, opt, stopAt)
	if gerr != werr {
		t.Fatalf("%q: error %q, the reference's %q", body, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: rows\n%+v\nthe reference's\n%+v", body, got, want)
	}
}

// headerAfterComments reports whether the reference refuses body's first
// content line as non-numeric although comment or blank lines precede it:
// that line is a header, which StreamCSV skips.
func headerAfterComments(body []byte, opt dataset.StreamOptions) bool {
	_, werr := parse(refStreamCSV, body, opt, 0)
	for i, line := range strings.Split(string(body), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			return i > 0 && strings.HasPrefix(werr, fmt.Sprintf("dataset: line %d, column ", i+1))
		}
	}
	return false
}

var textSeeds = []string{
	"", "\n\n", "# only a comment\n", "x1,x2,y\n1,2,0\n3,4,1\n", "1,2,0\r\n 3 , 4 ,\t1\r\n",
	"1,2\n3\n", "1,2\nx,3\n", "1,,2\n", "1,2,3,", ",1\n", "1e400,2\n", "nan,inf,-Inf\n", "0x1p3,1_0,+.5\n",
	"1 , 2\u3000\n", " 1,2\n", "1,2\u0085\n", "\xff,1\n", "1,\xef\xbb\xbf2\n",
	"1 1:0.5 3:2\n0 2:1\n", "1\n0 \n", "1 1:1 1:2\n", "1 0:1\n", "1 +3:1 007:2\n", "1 -1:2\n",
	"1 4294967297:2.5\n", "1 2147483647:1\n", "1 :1\n", "1 1:\n", "1 1:2:3\n", "1 1\n", "x 1:1\n",
	"1 1:2 3:4\n", "1\v1:2\f2:3\r3:4\n", "1 1:2\u00851\n", "1 1:\xff\n", "# c\n\n  1 2:3\n",
	"9007199254740993 1:4.9406564584124654e-324 2:1.7976931348623159e308\n",
}

// FuzzStreamCSVParity: whatever the bytes and options, StreamCSV hands out
// the reference's rows, line numbers and error text, except for the two
// fixed faults.
func FuzzStreamCSVParity(f *testing.F) {
	for _, s := range textSeeds {
		f.Add([]byte(s), int8(-1), uint8(0), uint8(0))
	}
	f.Add([]byte("5,1,2\n6,3,4\n"), int8(0), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, labelCol int8, dim, stopAt uint8) {
		opt := dataset.StreamOptions{LabelCol: dataset.Column(int(labelCol)), Dim: int(dim), MaxLineBytes: 256}
		if bytes.HasPrefix(body, []byte("\uFEFF")) || headerAfterComments(body, opt) {
			return
		}
		checkParity(t, dataset.StreamCSV, refStreamCSV, body, opt, int(stopAt))
	})
}

// FuzzStreamLibSVMParity: whatever the bytes and options, StreamLibSVM
// hands out the reference's rows, line numbers and error text, except for a
// leading byte-order mark.
func FuzzStreamLibSVMParity(f *testing.F) {
	for _, s := range textSeeds {
		f.Add([]byte(s), uint8(0), uint8(0))
	}
	f.Add([]byte("1 1:1 5:2\n0 3:1\n"), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, dim, stopAt uint8) {
		if bytes.HasPrefix(body, []byte("\uFEFF")) {
			return
		}
		opt := dataset.StreamOptions{Dim: int(dim), MaxLineBytes: 256}
		checkParity(t, dataset.StreamLibSVM, refStreamLibSVM, body, opt, int(stopAt))
	})
}

// benchmarkText is the text a benchmark workload ingests: serve-ladder's
// Higgs CSV or lr-sparse-store's Criteo LibSVM, at rows rows.
func benchmarkText(tb testing.TB, format string, rows int) (text []byte, dim int) {
	tb.Helper()
	var ds *dataset.Dataset
	var buf bytes.Buffer
	var err error
	if format == "csv" {
		ds = datagen.Higgs(datagen.Config{Rows: rows, Dim: 28, Seed: 1})
		err = dataset.WriteCSV(&buf, ds)
	} else {
		ds = datagen.Criteo(datagen.Config{Rows: rows, Dim: 10000, Seed: 1})
		err = dataset.WriteLibSVM(&buf, ds)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), ds.Dim
}

// TestIngestBytesMatchReferenceParsers: an ingest of the benchmark's two
// texts writes a rows.bin and an index.bin byte-identical to the ones the
// same record writer makes from the reference parsers' rows.
func TestIngestBytesMatchReferenceParsers(t *testing.T) {
	for _, format := range []string{"csv", "libsvm"} {
		text, dim := benchmarkText(t, format, 4000)
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		h, err := st.Ingest(bytes.NewReader(text), IngestOptions{Format: format, Task: dataset.BinaryClassification, Dim: dim})
		if err != nil {
			t.Fatal(err)
		}
		refDir := t.TempDir()
		w, err := newIngestWriters(refDir)
		if err != nil {
			t.Fatal(err)
		}
		sparse, ref := format == "libsvm", refStreamCSV
		if sparse {
			ref = refStreamLibSVM
		}
		var rec []byte
		err = ref(bytes.NewReader(text), dataset.StreamOptions{Dim: dim}, func(row dataset.RowData) error {
			rec = encodeRow(rec[:0], sparse, row)
			return w.writeRecord(rec)
		})
		if err == nil {
			err = w.finish(&Manifest{})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"rows.bin", "index.bin"} {
			got, err1 := os.ReadFile(filepath.Join(h.dir, name))
			want, err2 := os.ReadFile(filepath.Join(refDir, name))
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: %d bytes differ from the reference's %d", format, name, len(got), len(want))
			}
		}
	}
}

// BenchmarkIngest times Store.Ingest over the benchmark workloads' texts:
// serve-ladder's 50 000 × 28 Higgs CSV and lr-sparse-store's 50 000 ×
// 10 000 Criteo LibSVM. MB/s is text read a second.
func BenchmarkIngest(b *testing.B) {
	for _, c := range []struct{ name, format string }{
		{"csv-higgs-50000x28", "csv"},
		{"libsvm-criteo-50000x10000", "libsvm"},
	} {
		b.Run(c.name, func(b *testing.B) {
			text, dim := benchmarkText(b, c.format, 50000)
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for range b.N {
				h, err := st.Ingest(bytes.NewReader(text), IngestOptions{Format: c.format, Task: dataset.BinaryClassification, Dim: dim})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := st.Delete(h.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
