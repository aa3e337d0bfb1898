package dataset

import (
	"bufio"
	"fmt"
	"io"
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
// cap, declared dimension). Like FromDense it refuses an input with no rows
// or with rows of no features (a label column alone).
func ReadCSVOpts(r io.Reader, task Task, opt StreamOptions) (*Dataset, error) {
	ds := &Dataset{Task: task, Name: "csv"}
	maxClass := -1
	err := StreamCSV(r, opt, func(row RowData) error {
		if len(row.Val) == 0 {
			return fmt.Errorf("%w (line %d has only a label)", errEmptyRows, row.Line)
		}
		if ds.Dim == 0 {
			ds.Dim = len(row.Val)
		}
		ds.X = append(ds.X, DenseRow(row.Val))
		ds.Y = append(ds.Y, row.Label)
		if c := int(row.Label); task == MultiClassification && float64(c) == row.Label && c > maxClass {
			maxClass = c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, errNoRows
	}
	if task == MultiClassification {
		ds.NumClasses = maxClass + 1
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteCSV writes the dataset as CSV with the label in the last column.
// Sparse rows are densified (CSV is a dense format; use WriteLibSVM for
// sparse data).
func WriteCSV(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	dense := make([]float64, ds.Dim)
	for i := 0; i < ds.Len(); i++ {
		for j := range dense {
			dense[j] = 0
		}
		ds.X[i].AddTo(dense, 1)
		for _, v := range dense {
			if _, err := fmt.Fprintf(bw, "%g,", v); err != nil {
				return err
			}
		}
		label := 0.0
		if ds.Task != Unsupervised {
			label = ds.Y[i]
		}
		if _, err := fmt.Fprintf(bw, "%g\n", label); err != nil {
			return err
		}
	}
	return bw.Flush()
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
// dimension, line cap, dense-fallback threshold). Rows are packed into one
// contiguous CSR block rather than per-row allocations; when the measured
// density exceeds the threshold (DefaultDenseThreshold unless overridden)
// the rows auto-fall back to dense, which is both smaller and faster at
// that density. Either way the values are identical, so training results
// do not depend on the representation chosen. Like ReadCSVOpts it refuses
// an input with no rows, or whose rows have no features (label-only lines
// and no declared dimension).
func ReadLibSVMOpts(r io.Reader, task Task, opt StreamOptions) (*Dataset, error) {
	c := &CSR{Indptr: []int64{0}}
	var labels []float64
	maxIdx := int32(-1)
	maxClass := -1
	err := StreamLibSVM(r, opt, func(row RowData) error {
		c.Idx = append(c.Idx, row.Idx...)
		c.Val = append(c.Val, row.Val...)
		c.Indptr = append(c.Indptr, int64(len(c.Idx)))
		labels = append(labels, row.Label)
		if n := len(row.Idx); n > 0 && row.Idx[n-1] > maxIdx {
			maxIdx = row.Idx[n-1]
		}
		if c := int(row.Label); task == MultiClassification && float64(c) == row.Label && c > maxClass {
			maxClass = c
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dim := opt.Dim
	if dim <= 0 {
		dim = int(maxIdx) + 1
	}
	switch {
	case len(labels) == 0:
		return nil, errNoRows
	case dim == 0:
		return nil, fmt.Errorf("%w (no line has an index:value pair)", errEmptyRows)
	}
	c.Dim = dim
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ds := &Dataset{Dim: dim, Task: task, Name: "libsvm", X: c.Rows(), Y: labels}
	threshold := opt.DenseThreshold
	if threshold == 0 {
		threshold = DefaultDenseThreshold
	}
	if n := len(ds.X); n > 0 && dim > 0 && float64(c.NNZ())/(float64(n)*float64(dim)) > threshold {
		Densify(ds)
	}
	if task == MultiClassification {
		ds.NumClasses = maxClass + 1
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// WriteLibSVM writes the dataset in LibSVM format (1-based indices,
// zero-valued stored entries skipped).
func WriteLibSVM(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < ds.Len(); i++ {
		label := 0.0
		if ds.Task != Unsupervised {
			label = ds.Y[i]
		}
		if _, err := fmt.Fprintf(bw, "%g", label); err != nil {
			return err
		}
		var werr error
		ds.X[i].ForEach(func(j int, v float64) {
			if v == 0 || werr != nil {
				return
			}
			_, werr = fmt.Fprintf(bw, " %d:%g", j+1, v)
		})
		if werr != nil {
			return werr
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}
