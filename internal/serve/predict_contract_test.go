package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blinkml/internal/dataset"
	"blinkml/internal/modelio"
	"blinkml/internal/models"
)

// contractMaxBody is the body cap of the server the predict contract runs
// against: small, so a 413 is cheap to provoke.
const contractMaxBody = 256

// predictServer starts a server with body cap maxBody and registers one
// 3-feature linear model on it, returning the server and the model.
func predictServer(t testing.TB, maxBody int64) (*Server, string, *modelio.Model) {
	t.Helper()
	s, err := New(Config{Dir: t.TempDir(), MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(s.Close)
	m := &modelio.Model{Spec: models.LinearRegression{Reg: 0.001}, Theta: []float64{0.5, -1.25, 2}, Dim: 3}
	id, err := s.Registry().Put(m)
	if err != nil {
		t.Fatalf("register model: %v", err)
	}
	return s, id, m
}

// postPredict sends body to the model's predict route and returns the
// recorded response.
func postPredict(s *Server, id, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/"+id+"/predict", strings.NewReader(body)))
	return rec
}

// TestPredictErrorContract pins what POST /v1/models/{id}/predict answers for
// each body: the status and the exact error text, or for a 200 the rows the
// predictions were made from. Every request decoder change must leave it
// passing unmodified.
func TestPredictErrorContract(t *testing.T) {
	s, id, m := predictServer(t, contractMaxBody)
	overLimit := `{"rows":[` + strings.Repeat(`[1,2,3],`, contractMaxBody/8) + `[1,2,3]]}`
	for _, c := range []struct {
		name, body string
		status     int
		err        string      // the ErrorResponse text when status is not 200
		rows       [][]float64 // what the predictions are of when it is
	}{
		{"plain", `{"rows":[[1,2,3],[-0.5,0,1e-3]]}`, 200, "", [][]float64{{1, 2, 3}, {-0.5, 0, 1e-3}}},
		{"unknown field", `{"rowz":[[1,2,3]]}`, 400, `serve: bad request body: json: unknown field "rowz"`, nil},
		{"title-case key", `{"Rows":[[1,2,3]]}`, 200, "", [][]float64{{1, 2, 3}}},
		{"upper-case key", `{"ROWS":[[1,2,3]]}`, 200, "", [][]float64{{1, 2, 3}}},
		{"escaped key", `{"\u0072ows":[[1,2,3]]}`, 200, "", [][]float64{{1, 2, 3}}},
		{"duplicate key", `{"rows":[[1,2,3]],"rows":[[4,5,6],[7,8,9]]}`, 200, "", [][]float64{{4, 5, 6}, {7, 8, 9}}},
		{"null rows", `{"rows":null}`, 400, "serve: predict needs at least one row", nil},
		{"no rows", `{"rows":[]}`, 400, "serve: predict needs at least one row", nil},
		{"empty object", `{}`, 400, "serve: predict needs at least one row", nil},
		{"null element", `{"rows":[[null]]}`, 400, "serve: row 0 has 1 features, model wants 3", nil},
		{"null among numbers", `{"rows":[[1,null,3]]}`, 200, "", [][]float64{{1, 0, 3}}},
		{"null row", `{"rows":[null]}`, 400, "serve: row 0 has 0 features, model wants 3", nil},
		{"out of range", `{"rows":[[1e400]]}`, 400, "serve: bad request body: json: cannot unmarshal number 1e400 into Go struct field PredictRequest.rows of type float64", nil},
		{"leading dot", `{"rows":[[.5]]}`, 400, "serve: bad request body: invalid character '.' looking for beginning of value", nil},
		{"leading zero", `{"rows":[[01]]}`, 400, "serve: bad request body: invalid character '1' after array element", nil},
		{"string element", `{"rows":[["1",2,3]]}`, 400, "serve: bad request body: json: cannot unmarshal string into Go struct field PredictRequest.rows of type float64", nil},
		{"trailing word", `{"rows":[[1,2,3]]}x`, 400, "serve: bad request body: unexpected data after JSON value", nil},
		{"trailing whitespace", " \t{\"rows\" : [ [1 , 2,3] ] }\r\n ", 200, "", [][]float64{{1, 2, 3}}},
		{"empty body", ``, 400, "serve: bad request body: EOF", nil},
		{"over the cap", overLimit, 413, "serve: request body exceeds 256 bytes", nil},
		{"over the cap after a syntax error", `{"rows":[[1,2,3]x` + strings.Repeat(" ", contractMaxBody), 400, "serve: bad request body: invalid character 'x' after array element", nil},
		{"wrong dimension", `{"rows":[[1,2,3],[1,2]]}`, 400, "serve: row 1 has 2 features, model wants 3", nil},
	} {
		rec := postPredict(s, id, c.body)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, rec.Code, c.status, rec.Body)
			continue
		}
		if c.status != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != c.err {
				t.Errorf("%s: error %q, want %q", c.name, rec.Body, c.err)
			}
			continue
		}
		var pr PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(pr.Predictions) != len(c.rows) {
			t.Errorf("%s: %d predictions, want %d", c.name, len(pr.Predictions), len(c.rows))
			continue
		}
		for i, x := range c.rows {
			if want := m.Spec.Predict(m.Theta, dataset.DenseRow(x)); pr.Predictions[i] != want {
				t.Errorf("%s: prediction %d = %v, want %v", c.name, i, pr.Predictions[i], want)
			}
		}
	}
}
