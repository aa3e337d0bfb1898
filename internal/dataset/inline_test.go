package dataset

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzInline: whatever JSON bytes arrive as an inline payload, Validate and
// then Build either refuse them with a dataset error or yield a dataset that
// validates, with the payload's Rows() rows, at least one feature, finite
// features and finite labels — never a panic — and equal bytes hash alike.
// Bytes encoding/json refuses never reach Inline.
func FuzzInline(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var in Inline
		if json.Unmarshal(body, &in) != nil {
			return
		}
		refused := func(err error) bool {
			if err != nil && !strings.HasPrefix(err.Error(), "dataset") {
				t.Fatalf("%q: unstructured error %v", body, err)
			}
			return err != nil
		}
		if refused(in.Validate()) {
			return
		}
		ds, err := in.Build()
		if refused(err) {
			return
		}
		task, _ := ParseTask(in.Task)
		if err := ds.Validate(); err != nil {
			t.Fatalf("%q: built a dataset that does not validate: %v", body, err)
		}
		if ds.Len() != in.Rows() || ds.Dim < 1 {
			t.Fatalf("%q: built a %dx%d dataset from %d rows", body, ds.Len(), ds.Dim, in.Rows())
		}
		checkFinite(t, body, task, ds)
		for i, y := range ds.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				t.Fatalf("%q: label %d is %v", body, i, y)
			}
		}
		var again Inline
		if err := json.Unmarshal(body, &again); err != nil || again.ContentHash() != in.ContentHash() {
			t.Fatalf("%q: the same bytes hash %#x, then %#x (%v)", body, in.ContentHash(), again.ContentHash(), err)
		}
	})
}
