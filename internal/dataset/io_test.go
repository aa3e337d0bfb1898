package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := "x1,x2,y\n1,2,0\n3,4,1\n"
	ds, err := ReadCSV(strings.NewReader(in), -1, BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dim != 2 {
		t.Fatalf("len=%d dim=%d", ds.Len(), ds.Dim)
	}
	if ds.Y[0] != 0 || ds.Y[1] != 1 {
		t.Fatalf("labels %v", ds.Y)
	}
	if ds.X[1].Dot([]float64{1, 1}) != 7 {
		t.Fatal("features wrong")
	}
}

func TestReadCSVLabelColumnVariants(t *testing.T) {
	in := "5,1,2\n6,3,4\n"
	ds, err := ReadCSV(strings.NewReader(in), 0, Regression)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Y[0] != 5 || ds.Y[1] != 6 {
		t.Fatalf("labels %v", ds.Y)
	}
	if _, err := ReadCSV(strings.NewReader(in), 7, Regression); err == nil {
		t.Fatal("out-of-range label column accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), -1, Regression); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\nx,3\n"), -1, Regression); err == nil {
		t.Fatal("non-numeric mid-file accepted")
	}
}

// A CSV body whose rows hold only the label has no features: FromDense's
// "rows are empty", not a Dim-0 dataset no model can be trained on. A body
// with no rows at all (empty, header only, comments only) is FromDense's
// "no rows".
func TestReadCSVRefusesRowsWithoutFeatures(t *testing.T) {
	for _, c := range []struct {
		body     string
		labelCol int
		want     error
	}{
		{"1\n0\n1\n0\n", -1, errEmptyRows},
		{"y\n1\n0\n", 0, errEmptyRows},
		{"", -1, errNoRows},
		{"x1,x2,y\n", -1, errNoRows},
		{"# nothing\n\n", -1, errNoRows},
	} {
		ds, err := ReadCSV(strings.NewReader(c.body), c.labelCol, BinaryClassification)
		if !errors.Is(err, c.want) {
			t.Fatalf("%q: dataset %+v, err %v; want %v", c.body, ds, err, c.want)
		}
	}
}

// A leading UTF-8 byte-order mark is dropped, not read as part of the
// first token: the first row is data, not a header.
func TestReadCSVSkipsByteOrderMark(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("\uFEFF1.5,2,1\n3,4,0\n"), -1, BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Y[0] != 1 || ds.X[0].Dot([]float64{1, 0}) != 1.5 {
		t.Fatalf("rows %v, labels %v; want the first row read as data", ds.X, ds.Y)
	}
	// A marked header is still a header.
	if ds, err := ReadCSV(strings.NewReader("\uFEFFx,y,label\n3,4,0\n"), -1, BinaryClassification); err != nil || ds.Len() != 1 {
		t.Fatalf("marked header: dataset %v, err %v", ds, err)
	}
}

// A leading UTF-8 byte-order mark is dropped before the first label.
func TestReadLibSVMSkipsByteOrderMark(t *testing.T) {
	ds, err := ReadLibSVM(strings.NewReader("\uFEFF1 1:1.5\n0 2:1\n"), 0, BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Y[0] != 1 || ds.X[0].Dot([]float64{1, 0}) != 1.5 {
		t.Fatalf("rows %v, labels %v", ds.X, ds.Y)
	}
}

// The header is the first line that is neither blank nor a comment, wherever
// it falls; a non-numeric line after it is still an error with its line.
func TestReadCSVHeaderAfterComments(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("# c\n\nx,y,label\n3,4,0\n"), -1, BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 || ds.Y[0] != 0 {
		t.Fatalf("rows %v, labels %v", ds.X, ds.Y)
	}
	_, err = ReadCSV(strings.NewReader("# c\nx,y,label\nu,v,w\n3,4,0\n"), -1, BinaryClassification)
	if err == nil || err.Error() != `dataset: line 3, column 1: non-numeric field "u"` {
		t.Fatalf("second non-numeric line: err %v", err)
	}
}

// ReadCSV's rows are views of one block, each cut to its own width: an
// append to one row cannot write into the next.
func TestReadCSVRowsAreCutViews(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1,2,0\n3,4,1\n5,6,0\n"), -1, BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ds.X {
		if r := x.(DenseRow); cap(r) != 2 {
			t.Fatalf("row %d: capacity %d, want 2", i, cap(r))
		}
	}
	_ = append(ds.X[0].(DenseRow), 9)
	if r1 := ds.X[1].(DenseRow); r1[0] != 3 || r1[1] != 4 {
		t.Fatalf("row 1 is %v after an append to row 0", r1)
	}
}

func TestReadCSVMultiClassInference(t *testing.T) {
	in := "1,0\n2,2\n3,1\n"
	ds, err := ReadCSV(strings.NewReader(in), -1, MultiClassification)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClasses != 3 {
		t.Fatalf("classes=%d want 3", ds.NumClasses)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := &Dataset{Dim: 3, Task: Regression, Name: "rt"}
	orig.X = append(orig.X, DenseRow{1, 2, 3}, DenseRow{4, 0, 6})
	orig.Y = append(orig.Y, 0.5, -1.25)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, -1, Regression)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Dim != 3 {
		t.Fatalf("round trip shape %d x %d", back.Len(), back.Dim)
	}
	for i := range back.Y {
		if back.Y[i] != orig.Y[i] {
			t.Fatalf("label %d: %v != %v", i, back.Y[i], orig.Y[i])
		}
		a := make([]float64, 3)
		b := make([]float64, 3)
		back.X[i].AddTo(a, 1)
		orig.X[i].AddTo(b, 1)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d feature %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestReadLibSVMBasic(t *testing.T) {
	in := "1 1:0.5 3:2\n0 2:1\n"
	// At its inferred dimension, 3, this tiny file is 50% dense, above the
	// auto-dense threshold, so the reader densifies; declared 12 wide it is
	// 12.5% dense and stays sparse.
	ds, err := ReadLibSVMOpts(strings.NewReader(in), BinaryClassification, StreamOptions{Dim: 12})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 12 || ds.Len() != 2 {
		t.Fatalf("dim=%d len=%d", ds.Dim, ds.Len())
	}
	if _, ok := ds.X[0].(*SparseRow); !ok {
		t.Fatalf("below-threshold rows should stay sparse, got %T", ds.X[0])
	}
	if ds.X[0].NNZ() != 2 || ds.X[1].NNZ() != 1 {
		t.Fatal("sparsity wrong")
	}
	if got := ds.X[0].Dot([]float64{1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}); got != 2.5 {
		t.Fatalf("row 0 sum %v", got)
	}
	dense, err := ReadLibSVM(strings.NewReader(in), 0, BinaryClassification)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dense.X[0].(DenseRow); !ok {
		t.Fatalf("above-threshold rows should auto-densify, got %T", dense.X[0])
	}
	if got := dense.X[0].Dot([]float64{1, 1, 1}); got != 2.5 {
		t.Fatalf("densified row 0 sum %v", got)
	}
}

func TestReadLibSVMErrors(t *testing.T) {
	cases := []string{
		"x 1:1\n",     // bad label
		"1 0:1\n",     // index < 1
		"1 2:1 1:1\n", // out of order
		"1 1:x\n",     // bad value
		"1 nocolon\n", // missing colon
	}
	for _, in := range cases {
		if _, err := ReadLibSVM(strings.NewReader(in), 0, Regression); err == nil {
			t.Errorf("malformed input accepted: %q", in)
		}
	}
	// Declared dim too small.
	if _, err := ReadLibSVM(strings.NewReader("1 5:1\n"), 3, Regression); err == nil {
		t.Error("index beyond declared dim accepted")
	}
}

// A LibSVM body with no rows, or whose lines hold only labels (and no
// declared dimension), is refused as ReadCSV refuses it — not a 0-row or
// Dim-0 dataset that fails only once training reaches its statistics.
func TestReadLibSVMRefusesRowsWithoutFeatures(t *testing.T) {
	for _, c := range []struct {
		body string
		want error
	}{
		{"", errNoRows},
		{"# nothing\n\n", errNoRows},
		{"0\n1\n", errEmptyRows},
		{"1\n# x\n0\n", errEmptyRows},
	} {
		ds, err := ReadLibSVM(strings.NewReader(c.body), 0, BinaryClassification)
		if !errors.Is(err, c.want) {
			t.Fatalf("%q: dataset %+v, err %v; want %v", c.body, ds, err, c.want)
		}
	}
	// With a declared dimension, label-only lines are rows of zeros.
	ds, err := ReadLibSVM(strings.NewReader("0\n1\n"), 3, BinaryClassification)
	if err != nil || ds.Len() != 2 || ds.Dim != 3 {
		t.Fatalf("declared dim 3: dataset %+v, err %v; want 2 zero rows of dim 3", ds, err)
	}
}

func TestLibSVMRoundTrip(t *testing.T) {
	orig := &Dataset{Dim: 6, Task: MultiClassification, NumClasses: 3, Name: "rt"}
	r1, _ := NewSparseRow(6, []int32{0, 4}, []float64{1.5, -2})
	r2, _ := NewSparseRow(6, []int32{2}, []float64{7})
	orig.X = append(orig.X, r1, r2)
	orig.Y = append(orig.Y, 2, 0)
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLibSVM(&buf, 6, MultiClassification)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumClasses != 3 {
		t.Fatalf("classes=%d", back.NumClasses)
	}
	for i := range orig.X {
		a := make([]float64, 6)
		b := make([]float64, 6)
		back.X[i].AddTo(a, 1)
		orig.X[i].AddTo(b, 1)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d feature %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestReadLibSVMSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n1 1:1\n"
	ds, err := ReadLibSVM(strings.NewReader(in), 0, Regression)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 {
		t.Fatalf("len=%d", ds.Len())
	}
}

// TestReadCSVErrorNamesColumnAndToken: parse failures must point at the
// line, the 1-based column, and quote the offending token — the difference
// between a fixable upload error and an opaque one.
func TestReadCSVErrorNamesColumnAndToken(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("1,2,0\n3,oops,1\n"), -1, Regression)
	if err == nil {
		t.Fatal("non-numeric field accepted")
	}
	for _, want := range []string{"line 2", "column 2", `"oops"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
}

// TestReadLibSVMErrorNamesFieldAndToken mirrors the CSV check for the
// sparse format.
func TestReadLibSVMErrorNamesFieldAndToken(t *testing.T) {
	cases := []struct {
		in    string
		wants []string
	}{
		{"1 1:0.5 nope\n", []string{"line 1", "field 3", `"nope"`}},
		{"1 0:1\n", []string{"line 1", "field 2", `"0"`}},
		{"1 1:1 1:2\n", []string{"line 1", "field 3", "strictly increasing"}},
		{"1 1:abc\n", []string{"line 1", "field 2", `"abc"`}},
	}
	for _, c := range cases {
		_, err := ReadLibSVM(strings.NewReader(c.in), 0, Regression)
		if err == nil {
			t.Fatalf("malformed input accepted: %q", c.in)
		}
		for _, want := range c.wants {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("input %q: error %q does not contain %q", c.in, err, want)
			}
		}
	}
}

// TestMaxLineBytesConfigurable: the scanner cap is an option, and blowing
// it produces an actionable line-numbered error rather than
// bufio.Scanner's bare "token too long".
func TestMaxLineBytesConfigurable(t *testing.T) {
	long := "1," + strings.Repeat("2,", 400) + "0\n"
	// A tiny cap rejects the line with a useful message...
	_, err := ReadCSVOpts(strings.NewReader(long), Regression, StreamOptions{MaxLineBytes: 64})
	if err == nil {
		t.Fatal("oversized line accepted under a 64-byte cap")
	}
	for _, want := range []string{"line 1", "64-byte", "MaxLineBytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cap error %q does not contain %q", err, want)
		}
	}
	// ...and raising the cap admits the same input.
	ds, err := ReadCSVOpts(strings.NewReader(long), Regression, StreamOptions{MaxLineBytes: 4096})
	if err != nil {
		t.Fatalf("raised cap: %v", err)
	}
	if ds.Len() != 1 || ds.Dim != 401 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Dim)
	}
	// LibSVM path honors the cap too.
	sparse := "1 " + strings.Repeat("1:1 ", 1)
	if _, err := ReadLibSVMOpts(strings.NewReader(strings.Repeat("x", 100)+sparse), Regression, StreamOptions{MaxLineBytes: 32}); err == nil {
		t.Fatal("oversized libsvm line accepted")
	}
}

// TestLineReaderStartsSmall: a three-row CSV allocates well under the old
// 1 MiB scanner buffer, and a line longer than the starting buffer still
// reads under the default cap.
func TestLineReaderStartsSmall(t *testing.T) {
	const in = "1,2,0\n3,4,1\n5,6,0\n"
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := ReadCSV(strings.NewReader(in), -1, BinaryClassification); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 256<<10 {
		t.Fatalf("a three-row ReadCSV allocates %d bytes, want under 256 KiB", got)
	}
	long := "1," + strings.Repeat("2,", 100<<10) + "0\n"
	ds, err := ReadCSVOpts(strings.NewReader(long), Regression, StreamOptions{})
	if err != nil {
		t.Fatalf("a %d-byte line: %v", len(long), err)
	}
	if ds.Len() != 1 || ds.Dim != 100<<10+1 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Dim)
	}
}

// TestStreamCSVLabelColumnOption checks the explicit label-column pointer
// (column 0 is a valid choice, distinct from the "last column" default).
func TestStreamCSVLabelColumnOption(t *testing.T) {
	var labels []float64
	err := StreamCSV(strings.NewReader("5,1,2\n6,3,4\n"), StreamOptions{LabelCol: Column(0)}, func(r RowData) error {
		labels = append(labels, r.Label)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || labels[0] != 5 || labels[1] != 6 {
		t.Fatalf("labels %v", labels)
	}
}

// FuzzReadCSV: whatever the bytes and label column, ReadCSVOpts under every
// task either refuses the input with a dataset error or returns a dataset
// that validates, with at least one row, at least one feature, finite
// labels and finite features — never a panic.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, labelCol int8) {
		for _, task := range []Task{Regression, BinaryClassification, MultiClassification, Unsupervised} {
			opt := StreamOptions{LabelCol: Column(int(labelCol)), MaxLineBytes: 4096}
			ds, err := ReadCSVOpts(bytes.NewReader(body), task, opt)
			if err != nil {
				if !strings.HasPrefix(err.Error(), "dataset") {
					t.Fatalf("%q (%v): unstructured error %v", body, task, err)
				}
				continue
			}
			if err := ds.Validate(); err != nil {
				t.Fatalf("%q (%v): returned a dataset that does not validate: %v", body, task, err)
			}
			if ds.Len() < 1 || ds.Dim < 1 {
				t.Fatalf("%q (%v): returned a %dx%d dataset", body, task, ds.Len(), ds.Dim)
			}
			for i, y := range ds.Y {
				if math.IsNaN(y) || math.IsInf(y, 0) {
					t.Fatalf("%q (%v): label %d is %v", body, task, i, y)
				}
			}
			checkFinite(t, body, task, ds)
		}
	})
}

// checkFinite fails t on a NaN or ±Inf feature of ds, read from body.
func checkFinite(t *testing.T, body []byte, task Task, ds *Dataset) {
	t.Helper()
	for i, x := range ds.X {
		x.ForEach(func(j int, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q (%v): row %d feature %d is %v", body, task, i, j, v)
			}
		})
	}
}

// FuzzReadLibSVM: whatever the bytes and declared dimension, ReadLibSVMOpts
// under every task either refuses the input with a dataset error or returns
// a dataset that validates, with at least one row and one feature, every
// stored index inside the dimension, finite labels and finite features —
// never a panic.
func FuzzReadLibSVM(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, dim uint8) {
		for _, task := range []Task{Regression, BinaryClassification, MultiClassification, Unsupervised} {
			opt := StreamOptions{Dim: int(dim), MaxLineBytes: 4096}
			ds, err := ReadLibSVMOpts(bytes.NewReader(body), task, opt)
			if err != nil {
				if !strings.HasPrefix(err.Error(), "dataset") {
					t.Fatalf("%q (%v): unstructured error %v", body, task, err)
				}
				continue
			}
			if err := ds.Validate(); err != nil {
				t.Fatalf("%q (%v): returned a dataset that does not validate: %v", body, task, err)
			}
			if ds.Len() < 1 || ds.Dim < 1 {
				t.Fatalf("%q (%v): returned a %dx%d dataset", body, task, ds.Len(), ds.Dim)
			}
			if dim > 0 && ds.Dim != int(dim) {
				t.Fatalf("%q (%v): dimension %d, declared %d", body, task, ds.Dim, dim)
			}
			for i, x := range ds.X {
				x.ForEach(func(j int, _ float64) {
					if j < 0 || j >= ds.Dim {
						t.Fatalf("%q (%v): row %d holds index %d of %d", body, task, i, j, ds.Dim)
					}
				})
			}
			for i, y := range ds.Y {
				if math.IsNaN(y) || math.IsInf(y, 0) {
					t.Fatalf("%q (%v): label %d is %v", body, task, i, y)
				}
			}
			checkFinite(t, body, task, ds)
		}
	})
}

// An index past int32 is refused with its line and field, whatever the
// declared dimension, not wrapped into a small one (4294967297 read as
// feature 0) or reported as out of order.
func TestReadLibSVMRefusesIndexPastInt32(t *testing.T) {
	for _, c := range []struct {
		body string
		want string
	}{
		{"1 4294967297:2.5 4294967299:1\n", "line 1, field 2: bad index \"4294967297\""},
		{"0 1:1\n1 2:1 2147483648:1\n", "line 2, field 3: bad index \"2147483648\""},
		{"1 1:1 9223372036854775808:1\n", "line 1, field 3: bad index"},
	} {
		for _, dim := range []int{0, 3} {
			if ds, err := ReadLibSVM(strings.NewReader(c.body), dim, Regression); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q (dim %d): dataset %v, err %v; want an error naming %q", c.body, dim, ds, err, c.want)
			}
		}
	}
	// The largest index that fits is a row like any other.
	ds, err := ReadLibSVM(strings.NewReader("1 1:1 2147483647:2\n"), 0, Regression)
	if err != nil || ds.Dim != math.MaxInt32 || ds.X[0].NNZ() != 2 {
		t.Fatalf("index 2³¹−1: dataset %v, err %v", ds, err)
	}
}

// Every constructor refuses a NaN or ±Inf feature, naming its row and
// feature.
func TestConstructorsRefuseNonFiniteFeatures(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		read func() (*Dataset, error)
		want string
	}{
		{"csv", func() (*Dataset, error) {
			return ReadCSV(strings.NewReader("1,2,0\n3,nan,1\n"), -1, BinaryClassification)
		}, "row 1: feature 1 is NaN"},
		{"libsvm", func() (*Dataset, error) {
			return ReadLibSVM(strings.NewReader("1 1:0.5\n0 1:2 3:-Inf\n"), 0, Unsupervised)
		}, "row 1: feature 2 is -Inf"},
		{"dense", func() (*Dataset, error) {
			return FromDense(Regression, [][]float64{{1, 2}, {inf, 4}}, []float64{0, 1}, 0)
		}, "row 1: feature 0 is +Inf"},
		{"sparse", func() (*Dataset, error) {
			return FromSparse(Regression, 100, [][]int32{{3, 40}}, [][]float64{{1, nan}}, []float64{0}, 0)
		}, "row 0: feature 40 is NaN"},
	} {
		if ds, err := c.read(); err == nil || !strings.HasPrefix(err.Error(), "dataset: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: dataset %v, err %v; want a dataset error naming %q", c.name, ds, err, c.want)
		}
	}
}

// RowWriter writes every number as fmt's %g and %d print it (the writers'
// former formatting), byte for byte, special values included.
func TestRowWriterMatchesFmt(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-7, 123456789, 1e21, 1e300, -2.5e-308,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	sp, err := NewSparseRow(len(vals)+2, []int32{0, 2, 5}, []float64{vals[1], vals[4], vals[12]})
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Dim: len(vals) + 2, Task: Regression, X: []Row{DenseRow(append([]float64{0, 7}, vals...)), sp}, Y: []float64{vals[13], vals[5]}}
	var want struct{ csv, libsvm strings.Builder }
	for i, row := range ds.X {
		dense := make([]float64, ds.Dim)
		row.AddTo(dense, 1)
		for _, v := range dense {
			fmt.Fprintf(&want.csv, "%g,", v)
		}
		fmt.Fprintf(&want.csv, "%g\n", ds.Y[i])
		fmt.Fprintf(&want.libsvm, "%g", ds.Y[i])
		row.ForEach(func(j int, v float64) {
			if v != 0 {
				fmt.Fprintf(&want.libsvm, " %d:%g", j+1, v)
			}
		})
		fmt.Fprintln(&want.libsvm)
	}
	for format, w := range map[string]string{"csv": want.csv.String(), "libsvm": want.libsvm.String()} {
		var got bytes.Buffer
		if err := WriteText(&got, format, ds); err != nil {
			t.Fatal(err)
		}
		if got.String() != w {
			t.Errorf("%s: RowWriter wrote\n%q\nfmt writes\n%q", format, got.String(), w)
		}
	}
	if _, err := NewRowWriter(io.Discard, "tsv", 3); err == nil {
		t.Error("unknown format accepted")
	}
}
