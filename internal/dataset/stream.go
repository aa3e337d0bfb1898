package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode"
	"unicode/utf8"
)

// DefaultMaxLineBytes is the scanner line cap applied when StreamOptions
// leaves MaxLineBytes zero: 16 MiB, enough for a dense row of ~2M features
// or a very long sparse row.
const DefaultMaxLineBytes = 1 << 24

// StreamOptions configures the streaming text parsers. Whatever the options,
// a parser hands its callback one row at a time in buffers it reuses for the
// next row (see RowData).
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
// The parser reuses Idx and Val for the next row: they are valid only until
// the callback returns, and a callback that keeps a row copies it.
type RowData struct {
	Idx   []int32
	Val   []float64
	Label float64
	// Line is the 1-based source line the row came from.
	Line int
}

// utf8BOM is the byte-order mark some editors write at the start of a UTF-8
// file. It is no white space, so left in place it would make the first
// line's first token unreadable.
var utf8BOM = []byte("\xEF\xBB\xBF")

// lineReader hands the stream parsers their content lines as views of the
// scanner's buffer, with no string made: a leading byte-order mark is
// dropped, leading white space is trimmed, and blank and '#' comment lines
// are skipped. The caps and errors are bufio.Scanner's, rewritten into
// line-numbered messages.
type lineReader struct {
	sc      *bufio.Scanner
	maxLine int
	// no is the 1-based number of the line last read.
	no int
}

// newLineReader's buffer starts at 64 KiB; bufio.Scanner grows it to the cap.
func newLineReader(r io.Reader, opt StreamOptions) *lineReader {
	maxLine := opt.maxLine()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(64<<10, maxLine)), maxLine)
	return &lineReader{sc: sc, maxLine: maxLine}
}

// next returns the next content line, which starts with neither white space
// nor '#'. It is valid until the following call; ok is false at the end of
// the input or on a read error.
func (lr *lineReader) next() (line []byte, ok bool) {
	for lr.sc.Scan() {
		lr.no++
		line = lr.sc.Bytes()
		if lr.no == 1 {
			line = bytes.TrimPrefix(line, utf8BOM)
		}
		line = line[spaces(line, 0):]
		if len(line) > 0 && line[0] != '#' {
			return line, true
		}
	}
	return nil, false
}

// err is the read's error, if any, in a line-numbered message naming the
// format.
func (lr *lineReader) err(format string) error {
	err := lr.sc.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("dataset: %s line %d exceeds the %d-byte line cap (raise MaxLineBytes)", format, lr.no+1, lr.maxLine)
	}
	return fmt.Errorf("dataset: reading %s: %w", format, err)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace holds white space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaces returns the index of the first rune at or after i that is not
// white space.
func spaces(b []byte, i int) int { return skip(b, i, true) }

// token returns the index of the first white-space rune at or after i.
func token(b []byte, i int) int { return skip(b, i, false) }

// skip returns the index of the first rune at or after i that is white space
// when space is false, or is not when it is true. White space is what
// unicode.IsSpace holds it to be, so strings.TrimSpace and strings.Fields
// see the same; only a non-ASCII byte costs a rune decode.
func skip(b []byte, i int, space bool) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += n
	}
	return i
}

// trimField is strings.TrimSpace over one CSV field, without a call when
// both its ends are printable ASCII, as they are in a written number.
func trimField(f []byte) []byte {
	if len(f) == 0 || f[0]-'!' > '~'-'!' || f[len(f)-1]-'!' > '~'-'!' {
		return bytes.TrimSpace(f)
	}
	return f
}

// StreamCSV parses dense CSV rows one line at a time, calling fn for each —
// the full input is never resident. One row per line, the label in
// opt.LabelCol, every other column a float feature. Blank lines and lines
// starting with '#' are skipped, and a non-numeric first line among the rest
// is a header and skipped too. Parse errors name the line, the 1-based
// column, and the offending token. fn returning an error stops the scan and
// surfaces that error.
func StreamCSV(r io.Reader, opt StreamOptions, fn func(RowData) error) error {
	lr := newLineReader(r, opt)
	header := true // the next content line may be a header
	dim := opt.Dim
	var vals []float64
lines:
	for {
		line, ok := lr.next()
		if !ok {
			return lr.err("CSV")
		}
		nf := bytes.Count(line, []byte{','}) + 1
		lc := opt.labelCol()
		if lc < 0 {
			lc = nf + lc
		}
		if lc < 0 || lc >= nf {
			return fmt.Errorf("dataset: line %d: label column %d out of range (%d fields)", lr.no, opt.labelCol(), nf)
		}
		vals = vals[:0]
		var label float64
		for col := 0; ; col++ {
			end := bytes.IndexByte(line, ',')
			f := line
			if end >= 0 {
				f = line[:end]
			}
			f = trimField(f)
			v, err := ParseFloat(f)
			if err != nil {
				if header {
					header = false
					continue lines
				}
				return fmt.Errorf("dataset: line %d, column %d: non-numeric field %q", lr.no, col+1, f)
			}
			if col == lc {
				label = v
			} else {
				vals = append(vals, v)
			}
			if end < 0 {
				break
			}
			line = line[end+1:]
		}
		header = false
		if dim == 0 {
			dim = len(vals)
		} else if len(vals) != dim {
			return fmt.Errorf("dataset: line %d has %d features, want %d", lr.no, len(vals), dim)
		}
		if err := fn(RowData{Val: vals, Label: label, Line: lr.no}); err != nil {
			return err
		}
	}
}

// StreamLibSVM parses sparse LibSVM/SVMlight rows one line at a time,
// calling fn for each — the full input is never resident:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Fields are separated by white space. Indices are 1-based in the format,
// at most 2³¹−1, and converted to 0-based in RowData. Parse errors name the
// line, the 1-based field, and the offending token.
func StreamLibSVM(r io.Reader, opt StreamOptions, fn func(RowData) error) error {
	lr := newLineReader(r, opt)
	var row RowData
	for {
		line, ok := lr.next()
		if !ok {
			return lr.err("LibSVM")
		}
		end := token(line, 0)
		label, err := ParseFloat(line[:end])
		if err != nil {
			return fmt.Errorf("dataset: line %d, field 1: bad label %q", lr.no, line[:end])
		}
		row.Idx, row.Val = row.Idx[:0], row.Val[:0]
		prev := int32(-1)
		for field := 2; ; field++ {
			start := spaces(line, end)
			if start == len(line) {
				break
			}
			end = token(line, start)
			f := line[start:end]
			colon := bytes.IndexByte(f, ':')
			if colon <= 0 {
				return fmt.Errorf("dataset: line %d, field %d: bad pair %q (want index:value)", lr.no, field, f)
			}
			idx1, ok := parseIndex(f[:colon])
			if !ok {
				return fmt.Errorf("dataset: line %d, field %d: bad index %q", lr.no, field, f[:colon])
			}
			v, err := ParseFloat(f[colon+1:])
			if err != nil {
				return fmt.Errorf("dataset: line %d, field %d: bad value %q", lr.no, field, f[colon+1:])
			}
			idx := int32(idx1 - 1)
			if idx <= prev {
				return fmt.Errorf("dataset: line %d, field %d: index %d not strictly increasing", lr.no, field, idx1)
			}
			if opt.Dim > 0 && int(idx) >= opt.Dim {
				return fmt.Errorf("dataset: line %d, field %d: index %d exceeds declared dim %d", lr.no, field, idx1, opt.Dim)
			}
			prev = idx
			row.Idx = append(row.Idx, idx)
			row.Val = append(row.Val, v)
		}
		row.Label, row.Line = label, lr.no
		if err := fn(row); err != nil {
			return err
		}
	}
}

// parseIndex reads a LibSVM index as strconv.Atoi reads it, ok only for one
// in [1, 2³¹−1]: an index past int32 is refused, not wrapped into a small
// one.
func parseIndex(b []byte) (int, bool) {
	if len(b) > 0 && b[0] == '+' {
		b = b[1:]
	}
	var n int64 // wide enough for a step past 2³¹−1 where int is 32 bits
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int64(c-'0'); n > math.MaxInt32 {
			return 0, false
		}
	}
	return int(n), n >= 1
}
