package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// DefaultMaxLineBytes is the scanner line cap applied when StreamOptions
// leaves MaxLineBytes zero: 16 MiB, enough for a dense row of ~2M features
// or a very long sparse row.
const DefaultMaxLineBytes = 1 << 24

// StreamOptions configures the streaming text parsers.
type StreamOptions struct {
	// LabelCol is the CSV label column; negative counts from the end
	// (LabelCol is ignored by the LibSVM parser, whose label is always the
	// first field). The zero value means the last column: use Column(i) for
	// an explicit zero-based column.
	LabelCol *int
	// Dim, when positive, declares the ambient dimension: the LibSVM parser
	// rejects indices beyond it, and the CSV parser rejects rows whose
	// feature count differs from it.
	Dim int
	// MaxLineBytes caps a single input line (default DefaultMaxLineBytes).
	// Lines beyond the cap fail with a line-numbered error instead of
	// bufio.Scanner's opaque "token too long".
	MaxLineBytes int
}

// Column returns a LabelCol pointer for StreamOptions (negative counts from
// the end, -1 = last).
func Column(i int) *int { return &i }

func (o StreamOptions) labelCol() int {
	if o.LabelCol == nil {
		return -1
	}
	return *o.LabelCol
}

func (o StreamOptions) maxLine() int {
	if o.MaxLineBytes <= 0 {
		return DefaultMaxLineBytes
	}
	return o.MaxLineBytes
}

// RowData is one parsed row, handed to the Stream* callbacks before the
// dataset's ambient dimension or class count is fixed. Idx is nil for dense
// rows; for sparse rows Idx holds zero-based, strictly increasing indices.
// The slices are freshly allocated per row: callbacks may retain them.
type RowData struct {
	Idx   []int32
	Val   []float64
	Label float64
	// Line is the 1-based source line the row came from.
	Line int
}

// lineScanner wraps bufio.Scanner with the configured cap and rewrites the
// cap-exceeded error into an actionable, line-numbered message.
func lineScanner(r io.Reader, maxLine int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(1<<20, maxLine)), maxLine)
	return sc
}

func scanErr(sc *bufio.Scanner, format string, lineNo, maxLine int) error {
	err := sc.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("dataset: %s line %d exceeds the %d-byte line cap (raise MaxLineBytes)", format, lineNo+1, maxLine)
	}
	return fmt.Errorf("dataset: reading %s: %w", format, err)
}

// StreamCSV parses dense CSV rows one line at a time, calling fn for each —
// the full input is never resident. One row per line, the label in
// opt.LabelCol, every other column a float feature. A non-numeric first
// line is treated as a header and skipped. Parse errors name the line, the
// 1-based column, and the offending token. fn returning an error stops the
// scan and surfaces that error.
func StreamCSV(r io.Reader, opt StreamOptions, fn func(RowData) error) error {
	maxLine := opt.maxLine()
	sc := lineScanner(r, maxLine)
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
		lc := opt.labelCol()
		if lc < 0 {
			lc = len(fields) + lc
		}
		if lc < 0 || lc >= len(fields) {
			return fmt.Errorf("dataset: line %d: label column %d out of range (%d fields)", lineNo, opt.labelCol(), len(fields))
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
		if err := fn(RowData{Val: vals, Label: label, Line: lineNo}); err != nil {
			return err
		}
	}
	return scanErr(sc, "CSV", lineNo, maxLine)
}

// StreamLibSVM parses sparse LibSVM/SVMlight rows one line at a time,
// calling fn for each — the full input is never resident:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based in the format, at most 2³¹−1, and converted to
// 0-based in RowData. Parse errors name the line, the 1-based field, and
// the offending token.
func StreamLibSVM(r io.Reader, opt StreamOptions, fn func(RowData) error) error {
	maxLine := opt.maxLine()
	sc := lineScanner(r, maxLine)
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
		row := RowData{Label: label, Line: lineNo}
		prev := int32(-1)
		for k, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return fmt.Errorf("dataset: line %d, field %d: bad pair %q (want index:value)", lineNo, k+2, f)
			}
			// An index past int32 is refused here, not wrapped into a
			// small one.
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
	return scanErr(sc, "LibSVM", lineNo, maxLine)
}
