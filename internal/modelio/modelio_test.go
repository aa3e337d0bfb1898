package modelio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"blinkml/internal/core"
	"blinkml/internal/datagen"
	"blinkml/internal/dataset"
	"blinkml/internal/models"
	"blinkml/internal/optimize"
)

// fixture trains spec on a small synthetic workload and returns the trained
// model plus a probe set for prediction comparison.
func fixture(t *testing.T, spec models.Spec, workload string) (*Model, *dataset.Dataset) {
	t.Helper()
	ds, err := datagen.Generate(workload, datagen.Config{Rows: 600, Dim: 12, Seed: 7})
	if err != nil {
		t.Fatalf("generate %s: %v", workload, err)
	}
	res, err := models.Train(spec, ds, nil, optimize.Options{MaxIters: 60})
	if err != nil {
		t.Fatalf("train %s on %s: %v", spec.Name(), workload, err)
	}
	return &Model{
		Spec:             spec,
		Theta:            res.Theta,
		SampleSize:       ds.Len(),
		PoolSize:         ds.Len(),
		EstimatedEpsilon: 0.05,
		UsedInitialModel: true,
		Diag:             core.Diagnostics{InitialTrain: 3 * time.Millisecond, InitialIters: res.Iters},
	}, ds
}

// TestRoundTripAllClasses encodes and decodes every model class and checks
// that the decoded model predicts identically on the fixture dataset.
func TestRoundTripAllClasses(t *testing.T) {
	cases := []struct {
		spec     models.Spec
		workload string
	}{
		{models.LinearRegression{Reg: 0.001}, "gas"},
		{models.LogisticRegression{Reg: 0.001}, "higgs"},
		{models.MaxEntropy{Reg: 0.001, Classes: 10}, "mnist"},
		{models.PoissonRegression{Reg: 0.001}, "counts"},
		{models.NewPPCA(4), "gas"},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name(), func(t *testing.T) {
			m, ds := fixture(t, tc.spec, tc.workload)
			var buf bytes.Buffer
			if err := Encode(&buf, m); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Spec.Name() != m.Spec.Name() {
				t.Fatalf("spec name %q, want %q", got.Spec.Name(), m.Spec.Name())
			}
			if len(got.Theta) != len(m.Theta) {
				t.Fatalf("theta length %d, want %d", len(got.Theta), len(m.Theta))
			}
			for i := range m.Theta {
				if got.Theta[i] != m.Theta[i] {
					t.Fatalf("theta[%d] = %v, want %v (JSON round trip must be exact)", i, got.Theta[i], m.Theta[i])
				}
			}
			if got.Dim != ds.Dim {
				t.Fatalf("dim %d, want %d", got.Dim, ds.Dim)
			}
			if got.SampleSize != m.SampleSize || got.PoolSize != m.PoolSize ||
				got.EstimatedEpsilon != m.EstimatedEpsilon || got.UsedInitialModel != m.UsedInitialModel {
				t.Fatalf("metadata mismatch: got %+v", got)
			}
			if got.Diag.InitialTrain != m.Diag.InitialTrain || got.Diag.InitialIters != m.Diag.InitialIters {
				t.Fatalf("diagnostics mismatch: got %+v want %+v", got.Diag, m.Diag)
			}
			// The decisive check: identical predictions on every fixture row.
			for i := 0; i < ds.Len(); i++ {
				want := m.Spec.Predict(m.Theta, ds.X[i])
				have := got.Spec.Predict(got.Theta, ds.X[i])
				if have != want {
					t.Fatalf("row %d: decoded model predicts %v, original %v", i, have, want)
				}
			}
		})
	}
}

// TestPPCASigmaSqSurvives checks that the derived noise variance — state
// that lives on the spec, not in θ — round-trips.
func TestPPCASigmaSqSurvives(t *testing.T) {
	spec := models.NewPPCA(4)
	m, _ := fixture(t, spec, "gas")
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := spec.SigmaSq()
	if have := got.Spec.(*models.PPCA).SigmaSq(); have != want {
		t.Fatalf("sigma^2 = %v after round trip, want %v", have, want)
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	m := &Model{Spec: models.LinearRegression{Reg: 0.001}, Theta: []float64{1, math.NaN()}}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err == nil {
		t.Fatal("encode accepted a NaN parameter")
	}
}

func TestDecodeRejectsBadEnvelope(t *testing.T) {
	cases := map[string]string{
		"wrong format":  `{"format":"other","version":1,"spec":{"name":"linear"},"theta":[1],"dim":1}`,
		"wrong version": `{"format":"blinkml-model","version":99,"spec":{"name":"linear"},"theta":[1],"dim":1}`,
		"unknown model": `{"format":"blinkml-model","version":1,"spec":{"name":"svm"},"theta":[1],"dim":1}`,
		"empty theta":   `{"format":"blinkml-model","version":1,"spec":{"name":"linear"},"theta":[],"dim":0}`,
		"not json":      `garbage`,
	}
	for name, raw := range cases {
		if _, err := Decode(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestDecodeRejectsMisshapenTheta: a θ whose length is not the spec's
// parameter count at the envelope's dim, or a non-positive dim, is a
// ErrShape — not a model that panics or truncates at predict time. A
// max-entropy spec without a class count fits any whole number of dim-rows.
func TestDecodeRejectsMisshapenTheta(t *testing.T) {
	const head = `{"format":"blinkml-model","version":1,`
	for name, raw := range map[string]string{
		"logistic short": head + `"spec":{"name":"logistic"},"theta":[1,2,3],"dim":5}`,
		"maxent short":   head + `"spec":{"name":"maxent","classes":3},"theta":[1,2,3,4,5,6,7],"dim":5}`,
		"ppca short":     head + `"spec":{"name":"ppca","factors":2},"theta":[1,2,3],"dim":5}`,
		"negative dim":   head + `"spec":{"name":"linear"},"theta":[1],"dim":-1}`,
		"maxent ragged":  head + `"spec":{"name":"maxent"},"theta":[1,2,3],"dim":2}`,
	} {
		if _, err := Decode(strings.NewReader(raw)); !errors.Is(err, ErrShape) {
			t.Errorf("%s: decode error %v, want ErrShape", name, err)
		}
	}
	m, err := Decode(strings.NewReader(head + `"spec":{"name":"maxent"},"theta":[1,2,3,4,5,6],"dim":2}`))
	if err != nil || m.Dim != 2 {
		t.Fatalf("maxent without a class count: %v, %+v", err, m)
	}
}

// FuzzModelDecode: every body either fails to decode or yields a model
// whose PredictInto on a zero row of length Dim returns a finite value
// without panicking. The committed corpus holds the misshapen bodies
// TestDecodeRejectsMisshapenTheta pins and one valid model per class.
func FuzzModelDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		out := make([]float64, 1)
		models.PredictInto(m.Spec, m.Theta, []dataset.Row{make(dataset.DenseRow, m.Dim)}, out)
		if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
			t.Fatalf("%s model of dim %d predicts %v on a zero row", m.Spec.Name(), m.Dim, out[0])
		}
	})
}

func TestSpecJSONDefaults(t *testing.T) {
	s, err := SpecJSON{Name: "logistic"}.Spec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if got := s.(models.LogisticRegression).Reg; got != DefaultReg {
		t.Fatalf("default reg %v, want %v", got, DefaultReg)
	}
	if _, err := (SpecJSON{}).Spec(); err == nil {
		t.Fatal("empty spec accepted")
	}
}
