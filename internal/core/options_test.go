package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"blinkml/internal/datagen"
	"blinkml/internal/models"
)

// fillDistinct sets every non-func field reachable from v (recursing into
// nested structs) to a distinct non-zero value and returns how many it set.
func fillDistinct(t *testing.T, v reflect.Value, set int) int {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Func:
		case reflect.Struct:
			set = fillDistinct(t, f, set)
		case reflect.Float64:
			set++
			f.SetFloat(float64(set) + 0.5)
		case reflect.Int, reflect.Int64:
			set++
			f.SetInt(int64(set))
		case reflect.Bool:
			set++
			f.SetBool(true)
		default:
			t.Fatalf("field %s has kind %s: teach this test (and the JSON form) about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return set
}

// TestOptionsJSONCarriesEveryField guards the one wire form of Options: a
// cluster task or an audit record that dropped a field would train or
// replay under a different config than the job it describes. Every field
// except the optimizer's callbacks must survive marshal → unmarshal, so a
// future option cannot be silently lost on the way to a worker.
func TestOptionsJSONCarriesEveryField(t *testing.T) {
	var want Options
	if n := fillDistinct(t, reflect.ValueOf(&want).Elem(), 0); n < 20 {
		t.Fatalf("filled only %d fields; Options and its optimizer have at least 20 scalars", n)
	}
	// Carried inside a larger document, as tasks and records do.
	type carrier struct {
		Options Options `json:"options"`
	}
	raw, err := json.Marshal(carrier{want})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got carrier
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	if !reflect.DeepEqual(got.Options, want) {
		t.Fatalf("options changed on the wire:\n sent %+v\n got  %+v\n json %s", want, got.Options, raw)
	}
}

// TestOptionsJSONKeys pins the keys audit logs and cluster tasks were
// written with before the form moved into core, so old records keep
// loading and what is written for those fields has not changed.
func TestOptionsJSONKeys(t *testing.T) {
	old := `{"epsilon":0.05,"delta":0.05,"k":100,"method":2,"seed":3,"initial_sample_size":300,` +
		`"min_sample_size":310,"holdout_fraction":0.1,"max_holdout":2000,"test_fraction":0.15,` +
		`"warm_start":true,"max_iters":150}`
	var got Options
	if err := json.Unmarshal([]byte(old), &got); err != nil {
		t.Fatal(err)
	}
	want := Options{Epsilon: 0.05, Delta: 0.05, K: 100, Method: ClosedForm, Seed: 3, InitialSampleSize: 300,
		MinSampleSize: 310, HoldoutFraction: 0.1, MaxHoldout: 2000, TestFraction: 0.15, WarmStart: true}
	want.Optimizer.MaxIters = 150
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var oldKeys, newKeys map[string]any
	if err := json.Unmarshal([]byte(old), &oldKeys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &newKeys); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newKeys, oldKeys) {
		t.Fatalf("re-encoded %s, want the keys and values of %s", raw, old)
	}
}

// TestOptionsRejectOutOfRangeAndNaN: a negative TestFraction used to reach
// dataset.NewSplit and panic on a negative slice bound, and a NaN Epsilon or
// Delta passed validate (both of its comparisons are false for NaN) and came
// back as ε̂ = NaN or a bound at an undefined confidence level. Every case
// must be a structured error from the contract entry point, and the split
// fractions also from NewEnvFromSource, which tune reaches without validate.
func TestOptionsRejectOutOfRangeAndNaN(t *testing.T) {
	ds := datagen.Higgs(datagen.Config{Rows: 2400, Dim: 5, Seed: 3})
	spec := models.LogisticRegression{Reg: 0.01}
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		opt     Options
		want    string // substring of the error; "" = must succeed
		atSplit bool   // NewEnvFromSource must reject it as well
	}{
		{"valid", Options{Epsilon: 0.2, TestFraction: 0.1, HoldoutFraction: 0.2}, "", false},
		{"negative test fraction", Options{Epsilon: 0.2, TestFraction: -0.5}, "TestFraction", true},
		{"holdout fraction of one", Options{Epsilon: 0.2, HoldoutFraction: 1}, "HoldoutFraction", true},
		{"NaN epsilon", Options{Epsilon: nan}, "Epsilon", false},
		{"NaN delta", Options{Epsilon: 0.2, Delta: nan}, "Delta", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Seed, tc.opt.InitialSampleSize = 1, 200
			res, err := TrainSourceContext(context.Background(), spec, ds, tc.opt)
			_, splitErr := NewEnvFromSource(ds, tc.opt)
			if tc.want == "" {
				if err != nil || splitErr != nil || math.IsNaN(res.EstimatedEpsilon) {
					t.Fatalf("valid options: train err %v, split err %v, result %+v", err, splitErr, res)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("train: error %v, want one naming %s", err, tc.want)
			}
			if tc.atSplit && (splitErr == nil || !strings.Contains(splitErr.Error(), tc.want)) {
				t.Fatalf("NewEnvFromSource: error %v, want one naming %s", splitErr, tc.want)
			}
		})
	}
}
