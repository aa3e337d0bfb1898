package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
)

// sameRows describes the first way got differs from want — length, nil or
// empty, or a value's bits — or returns "" when they are identical.
func sameRows(got, want [][]float64) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("rows %#v, want %#v", got, want)
	}
	for i := range want {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d = %#v, want %#v", i, got[i], want[i])
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("row %d feature %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// decodeRows is the decoder path's answer for body.
func decodeRows(body []byte) ([][]float64, bool) {
	var req PredictRequest
	ok := decodeJSON(httptest.NewRecorder(), bytes.NewReader(body), &req)
	return req.Rows, ok
}

// FuzzPredictBody: whatever the body, the scanner either declines it or
// yields exactly the rows encoding/json decodes from it, and never panics.
func FuzzPredictBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		_, rows, ok := scanRows(body, nil, nil)
		if !ok {
			return
		}
		want, ok := decodeRows(body)
		if !ok {
			t.Fatalf("scanner accepted %q, the decoder refuses it", body)
		}
		if msg := sameRows(rows, want); msg != "" {
			t.Fatalf("%q: %s", body, msg)
		}
	})
}

// TestScanRowsTakesOnlyItsShape: the fast path is taken for the one shape,
// with the decoder's values, and declined for every body the decoder would
// read differently or refuse.
func TestScanRowsTakesOnlyItsShape(t *testing.T) {
	for _, body := range []string{
		`{"rows":[[1,2,3],[-0.5,0,1e-3]]}`,
		`{"rows":[[-0]]}`,
		`{"rows":[[1E+2,1e-2,-0.0e0,123456789012345678901234567890]]}`,
		`{"rows":[]}`,
		`{"rows":[[],[1,2],[]]}`,
		" \t\r\n{ \"rows\" :[ [ 1 , 2 ] , [3] ] } \n",
		`{"rows":[[5e-324,1.7976931348623157e308,0.1000000000000000055511151231257827021181583404541015625]]}`,
	} {
		_, got, ok := scanRows([]byte(body), nil, nil)
		if !ok {
			t.Errorf("%s: declined", body)
			continue
		}
		want, _ := decodeRows([]byte(body))
		if msg := sameRows(got, want); msg != "" {
			t.Errorf("%s: %s", body, msg)
		}
	}
	for _, body := range []string{
		`{"Rows":[[1]]}`, `{"ROWS":[[1]]}`, `{"\u0072ows":[[1]]}`, `{"rowz":[[1]]}`, `{"rows ":[[1]]}`,
		`{"rows":[[1]],"rows":[[2]]}`, `{"rows":[[1]],}`, `{}`, `[]`, ``, `{"rows":null}`, `{"rows":[null]}`,
		`{"rows":[[null]]}`, `{"rows":[["1"]]}`, `{"rows":[[true]]}`, `{"rows":[[[1]]]}`, `{"rows":[1]}`,
		`{"rows":[[.5]]}`, `{"rows":[[01]]}`, `{"rows":[[+1]]}`, `{"rows":[[0x1p3]]}`, `{"rows":[[Inf]]}`,
		`{"rows":[[NaN]]}`, `{"rows":[[-]]}`, `{"rows":[[1.]]}`, `{"rows":[[1e]]}`, `{"rows":[[1e+]]}`,
		`{"rows":[[1_0]]}`, `{"rows":[[1e400]]}`, `{"rows":[[-1e400]]}`, `{"rows":[[1,]]}`, `{"rows":[[,1]]}`,
		`{"rows":[[1 2]]}`, `{"rows":[[1]]`, `{"rows":[[1]]}x`, `{"rows":[[1]]} {}`, "{\"rows\":[[1]]}\f",
		"{\"rows\":[[1\u00a0]]}", "{\"rows\":[[1\v]]}",
	} {
		if _, _, ok := scanRows([]byte(body), nil, nil); ok {
			t.Errorf("%s: accepted, want declined", body)
		}
	}
}

// TestScanRowsReusesItsBuffers: a second scan into the first one's buffers
// allocates nothing and leaves rows that view one flat array, none able to
// grow into its neighbour.
func TestScanRowsReusesItsBuffers(t *testing.T) {
	body := higgsBody(t, 64)
	flat, rows, ok := scanRows(body, nil, nil)
	if !ok {
		t.Fatal("declined the harness body")
	}
	if allocs := testing.AllocsPerRun(10, func() { flat, rows, ok = scanRows(body, flat[:0], rows[:0]) }); allocs != 0 {
		t.Errorf("a warm scan allocates %v times, want 0", allocs)
	}
	for i, row := range rows {
		if len(row) != 28 || cap(row) != 28 || &row[0] != &flat[28*i] {
			t.Fatalf("row %d (len %d, cap %d) is not flat[%d:%d:%d]", i, len(row), cap(row), 28*i, 28*i+28, 28*i+28)
		}
	}
}

// TestPredictBufferPoolDropsLargeBuffers: a buffer that held more than
// maxPooledPredictBytes of body, values or row views is not put back.
func TestPredictBufferPoolDropsLargeBuffers(t *testing.T) {
	var pb predictBuf
	if !pb.reusable() {
		t.Fatal("an empty buffer is not reusable")
	}
	pb.body.Grow(maxPooledPredictBytes / 2)
	pb.flat = make([]float64, 0, maxPooledPredictBytes/8)
	if !pb.reusable() {
		t.Fatal("a buffer at the cap is not reusable")
	}
	for name, grow := range map[string]func(*predictBuf){
		"body": func(pb *predictBuf) { pb.body.Grow(maxPooledPredictBytes + 1) },
		"flat": func(pb *predictBuf) { pb.flat = make([]float64, 0, maxPooledPredictBytes/8+1) },
		"rows": func(pb *predictBuf) { pb.rows = make([][]float64, 0, maxPooledPredictBytes/24+1) },
	} {
		var pb predictBuf
		grow(&pb)
		if pb.reusable() {
			t.Errorf("%s over the cap: reusable", name)
		}
	}
}

// TestConcurrentPredictsKeepTheirRows runs predicts on different bodies at
// once and checks every answer against Spec.Predict: a row view read after
// its buffer went back to the pool and was reused answers another request's
// rows (and, under -race, is a reported race).
func TestConcurrentPredictsKeepTheirRows(t *testing.T) {
	s, id, m := predictServer(t, 1<<20)
	const workers, requests = 8, 40
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for range requests {
				rows := make([][]float64, 1+rng.IntN(300))
				for i := range rows {
					rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				}
				body, _ := json.Marshal(PredictRequest{Rows: rows})
				rec := postPredict(s, id, string(body))
				var pr PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &pr); rec.Code != http.StatusOK || err != nil || len(pr.Predictions) != len(rows) {
					t.Errorf("status %d, %d predictions for %d rows: %s", rec.Code, len(pr.Predictions), len(rows), rec.Body)
					return
				}
				for i, x := range rows {
					if want := m.Spec.Predict(m.Theta, dataset.DenseRow(x)); pr.Predictions[i] != want {
						t.Errorf("row %d of %d predicted %v, want %v", i, len(rows), pr.Predictions[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// higgsBody is a predict body of n 28-feature Higgs rows, the shape of the
// serve-ladder benchmark's request.
func higgsBody(tb testing.TB, n int) []byte {
	tb.Helper()
	ds, err := datagen.Generate("higgs", datagen.Config{Rows: n, Dim: 28, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	req := PredictRequest{Rows: make([][]float64, n)}
	for i := range req.Rows {
		req.Rows[i] = make([]float64, ds.Dim)
		ds.X[i].AddTo(req.Rows[i], 1)
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkPredictDecode times the scanner against encoding/json on the
// serve-ladder request and a 16× larger one.
func BenchmarkPredictDecode(b *testing.B) {
	for _, n := range []int{64, 1024} {
		body := higgsBody(b, n)
		b.Run(fmt.Sprintf("scanner/%dx28", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			var flat []float64
			var rows [][]float64
			for b.Loop() {
				var ok bool
				if flat, rows, ok = scanRows(body, flat[:0], rows[:0]); !ok {
					b.Fatal("declined")
				}
			}
		})
		b.Run(fmt.Sprintf("json/%dx28", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if _, ok := decodeRows(body); !ok {
					b.Fatal("refused")
				}
			}
		})
	}
}

// BenchmarkPredictHandler is one serve-ladder-shaped predict through the
// server's handler: 64 Higgs rows against a 28-feature logistic model.
func BenchmarkPredictHandler(b *testing.B) {
	s, _, _ := predictServer(b, 0)
	theta := make([]float64, 28)
	for i := range theta {
		theta[i] = float64(i%5) - 2
	}
	id, err := s.Registry().Put(&modelio.Model{Spec: models.LogisticRegression{Reg: 0.001}, Theta: theta, Dim: 28})
	if err != nil {
		b.Fatal(err)
	}
	body := higgsBody(b, 64)
	url := "/v1/models/" + id + "/predict"
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
