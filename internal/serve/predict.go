package serve

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxPooledPredictBytes caps the buffers a predict request may return to
// predictBufs: one whose body, values or row views outgrew it is dropped, so
// a single large batch cannot pin its memory in the pool.
const maxPooledPredictBytes = 1 << 20

// predictBuf is one predict request's scratch: the body as read, every number
// scanned from it in order (flat), and the rows as views into flat.
type predictBuf struct {
	body bytes.Buffer
	flat []float64
	rows [][]float64
}

var predictBufs = sync.Pool{New: func() any { return new(predictBuf) }}

// reusable reports whether pb is small enough to go back to the pool.
func (pb *predictBuf) reusable() bool {
	const rowHeader = 24 // bytes in a []float64 header
	return pb.body.Cap() <= maxPooledPredictBytes &&
		cap(pb.flat)*8 <= maxPooledPredictBytes &&
		cap(pb.rows)*rowHeader <= maxPooledPredictBytes
}

// release returns pb to the pool, or drops it when it is not reusable. Every
// row pb handed out is invalid afterwards.
func (pb *predictBuf) release() {
	if !pb.reusable() {
		return
	}
	pb.body.Reset()
	predictBufs.Put(pb)
}

// readPredict reads a predict body through the server's size cap into pb and
// decodes it into req. A body of exactly the shape {"rows":[[number,…],…]}
// is scanned straight into pb, and req.Rows views pb until it is released.
// Any other body, and one whose read failed, is replayed through decodeJSON
// followed by the read's error, so the decoder answers exactly as if it had
// read the request itself: the scanner has no error of its own.
func (s *Server) readPredict(w http.ResponseWriter, r *http.Request, pb *predictBuf, req *PredictRequest) bool {
	// Size a fresh buffer once instead of doubling up to the body; ReadFrom
	// wants MinRead spare bytes even for the read that returns io.EOF.
	if n := r.ContentLength; n > 0 {
		pb.body.Grow(int(min(n, s.cfg.MaxBodyBytes, maxPooledPredictBytes)) + bytes.MinRead)
	}
	_, err := pb.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		var ok bool
		pb.flat, pb.rows, ok = scanRows(pb.body.Bytes(), pb.flat[:0], pb.rows[:0])
		if ok {
			req.Rows = pb.rows
			return true
		}
	}
	return decodeJSON(w, io.MultiReader(bytes.NewReader(pb.body.Bytes()), errReader{err}), req)
}

// errReader ends a replayed body the way its read ended: with err, or with
// io.EOF when the read succeeded.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) {
	if e.err == nil {
		return 0, io.EOF
	}
	return 0, e.err
}

// scanRows parses body as exactly
//
//	ws { ws "rows" ws : ws [ ws ( row ( ws , ws row )* )? ws ] ws } ws
//	row = [ ws ( number ( ws , ws number )* )? ws ]
//
// appending every number to flat and one view of flat per row to rows, and
// returns both grown. Each number must match the JSON grammar and is parsed
// by the strconv.ParseFloat call encoding/json makes, so the values are the
// decoder's to the bit; an empty row or batch is non-nil and empty, as the
// decoder makes it. ok is false for anything else — another key or spelling
// of it, a second key, null, a non-number, a number out of range, trailing
// bytes — and the caller hands the body to encoding/json.
func scanRows(body []byte, flat []float64, rows [][]float64) (_ []float64, _ [][]float64, ok bool) {
	if flat == nil {
		flat = []float64{}
	}
	if rows == nil {
		rows = [][]float64{}
	}
	sc := rowScanner{b: body}
	if !sc.eat('{') || !sc.eat('"') || !bytes.HasPrefix(sc.b[sc.i:], []byte(`rows"`)) {
		return flat, rows, false
	}
	sc.i += len(`rows"`)
	if !sc.eat(':') || !sc.eat('[') {
		return flat, rows, false
	}
	if !sc.eat(']') {
		for {
			if !sc.eat('[') {
				return flat, rows, false
			}
			start := len(flat)
			if !sc.eat(']') {
				for {
					sc.ws()
					v, ok := sc.number()
					if !ok {
						return flat, rows, false
					}
					flat = append(flat, v)
					if sc.eat(']') {
						break
					}
					if !sc.eat(',') {
						return flat, rows, false
					}
				}
			}
			// Only the length counts until flat stops growing; see below.
			rows = append(rows, flat[start:])
			if sc.eat(']') {
				break
			}
			if !sc.eat(',') {
				return flat, rows, false
			}
		}
	}
	if !sc.eat('}') {
		return flat, rows, false
	}
	sc.ws()
	if sc.i != len(sc.b) {
		return flat, rows, false
	}
	// Appends may have moved flat: point every row at its final array, with
	// its capacity cut so no row can grow into the next.
	off := 0
	for i, row := range rows {
		end := off + len(row)
		rows[i] = flat[off:end:end]
		off = end
	}
	return flat, rows, true
}

// rowScanner is a cursor over a predict body.
type rowScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (sc *rowScanner) ws() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (sc *rowScanner) eat(c byte) bool {
	sc.ws()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// number consumes one JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and parses it; ok is false when none starts here or it is out of range.
func (sc *rowScanner) number() (v float64, ok bool) {
	b, i := sc.b, sc.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[sc.i:i]), 64)
	if err != nil {
		return 0, false
	}
	sc.i = i
	return v, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
