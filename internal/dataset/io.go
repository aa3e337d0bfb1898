package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// ReadCSV parses a dense labeled dataset from CSV text: one row per line,
// the label in the given column (negative counts from the end, -1 = last),
// every other column a float feature. A non-numeric first line is treated
// as a header and skipped. The task tags the label semantics; NumClasses is
// inferred for MultiClassification.
func ReadCSV(r io.Reader, labelCol int, task Task) (*Dataset, error) {
	return ReadCSVOpts(r, task, StreamOptions{LabelCol: Column(labelCol)})
}

// ReadCSVOpts is ReadCSV with explicit parser options (label column, line
// cap, declared dimension). Like FromDense it refuses an input with no rows,
// with rows of no features (a label column alone) or with a NaN or ±Inf
// feature.
func ReadCSVOpts(r io.Reader, task Task, opt StreamOptions) (*Dataset, error) {
	b := build{name: "csv", task: task}
	err := StreamCSV(r, opt, func(row RowData) error {
		if len(row.Val) == 0 {
			return fmt.Errorf("%w (line %d has only a label)", errEmptyRows, row.Line)
		}
		b.x = append(b.x, row.Val)
		b.y = append(b.y, row.Label)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.dataset()
}

// ReadLibSVM parses the sparse LibSVM/SVMlight format:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based in the format and converted to 0-based here. dim of 0
// infers the dimension from the largest index seen.
func ReadLibSVM(r io.Reader, dim int, task Task) (*Dataset, error) {
	return ReadLibSVMOpts(r, task, StreamOptions{Dim: dim})
}

// ReadLibSVMOpts is ReadLibSVM with explicit parser options (declared
// dimension, line cap). Rows are packed into one contiguous CSR block
// rather than per-row allocations; when the measured density exceeds
// DefaultDenseThreshold the rows fall back to dense, which is both smaller
// and faster at that density. Either way the values are identical, so
// training results do not depend on the representation chosen. Like
// ReadCSVOpts it refuses an input with no rows, whose rows have no features
// (label-only lines and no declared dimension), or with a NaN or ±Inf
// feature.
func ReadLibSVMOpts(r io.Reader, task Task, opt StreamOptions) (*Dataset, error) {
	c := &CSR{Dim: opt.Dim, Indptr: []int64{0}}
	b := build{name: "libsvm", task: task, csr: c}
	err := StreamLibSVM(r, opt, func(row RowData) error {
		c.Idx, c.Val = append(c.Idx, row.Idx...), append(c.Val, row.Val...)
		c.Indptr = append(c.Indptr, int64(len(c.Idx)))
		b.y = append(b.y, row.Label)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.dataset()
}

// WriteCSV writes the dataset as CSV with the label in the last column.
// Sparse rows are densified (CSV is a dense format; use WriteLibSVM for
// sparse data).
func WriteCSV(w io.Writer, ds *Dataset) error { return WriteText(w, "csv", ds) }

// WriteLibSVM writes the dataset in LibSVM format (1-based indices,
// zero-valued stored entries skipped).
func WriteLibSVM(w io.Writer, ds *Dataset) error { return WriteText(w, "libsvm", ds) }

// WriteText writes the dataset as "csv" or "libsvm" text through a
// RowWriter. The rows of a dataset without labels (an unsupervised one
// may have none) carry the label 0.
func WriteText(w io.Writer, format string, ds *Dataset) error {
	rw, err := NewRowWriter(w, format, ds.Dim)
	if err != nil {
		return err
	}
	for i, row := range ds.X {
		label := 0.0
		if len(ds.Y) > 0 {
			label = ds.Y[i]
		}
		if err := rw.Write(row, label); err != nil {
			return err
		}
	}
	return rw.Flush()
}

// RowWriter formats rows as text, one line each, into a buffered writer:
// CSV with every feature densified and the label in the last column, or
// LibSVM with the label first and each non-zero entry as a 1-based
// index:value pair. Numbers come out as fmt's %g and %d print them: the
// shortest text that reads back to the same float64.
type RowWriter struct {
	bw     *bufio.Writer
	libsvm bool
	dense  []float64
	line   []byte
}

// NewRowWriter returns a RowWriter of dim-wide rows in format "csv" or
// "libsvm" onto w. Call Flush after the last row.
func NewRowWriter(w io.Writer, format string, dim int) (*RowWriter, error) {
	rw := &RowWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	switch format {
	case "csv":
		rw.dense = make([]float64, dim)
	case "libsvm":
		rw.libsvm = true
	default:
		return nil, fmt.Errorf("dataset: unknown text format %q (want csv|libsvm)", format)
	}
	return rw, nil
}

// Write writes one row with its label.
func (rw *RowWriter) Write(row Row, label float64) error {
	b := rw.line[:0]
	if rw.libsvm {
		b = strconv.AppendFloat(b, label, 'g', -1, 64)
		row.ForEach(func(j int, v float64) {
			if v != 0 {
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(j+1), 10)
				b = append(b, ':')
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		})
	} else {
		clear(rw.dense)
		row.AddTo(rw.dense, 1)
		for _, v := range rw.dense {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, label, 'g', -1, 64)
	}
	rw.line = append(b, '\n')
	_, err := rw.bw.Write(rw.line)
	return err
}

// Flush writes out any buffered rows.
func (rw *RowWriter) Flush() error { return rw.bw.Flush() }
