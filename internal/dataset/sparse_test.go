package dataset

import (
	"math"
	"testing"
)

func mustSparse(t *testing.T, dim int, idx []int32, val []float64) *SparseRow {
	t.Helper()
	r, err := NewSparseRow(dim, idx, val)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCSRRowsAndValidate(t *testing.T) {
	c := &CSR{
		Dim:    6,
		Indptr: []int64{0, 2, 2, 5},
		Idx:    []int32{1, 4, 0, 3, 5},
		Val:    []float64{2, -1, 7, 0.5, 3},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NRows() != 3 || c.NNZ() != 5 {
		t.Fatalf("shape %d rows / %d nnz", c.NRows(), c.NNZ())
	}
	rows := c.Rows()
	if got := rows[0].Dot([]float64{0, 1, 0, 0, 1, 0}); got != 1 {
		t.Fatalf("row 0 dot %v", got)
	}
	if rows[1].NNZ() != 0 {
		t.Fatalf("empty middle row has nnz %d", rows[1].NNZ())
	}
	if got := rows[2].Dot([]float64{1, 1, 1, 1, 1, 1}); got != 10.5 {
		t.Fatalf("row 2 dot %v", got)
	}
	// Views must be capacity-capped: appends may not clobber the neighbor.
	sp := rows[0].(*SparseRow)
	if cap(sp.Idx) != len(sp.Idx) || cap(sp.Val) != len(sp.Val) {
		t.Fatal("row views are not capacity-capped")
	}

	bad := &CSR{Dim: 3, Indptr: []int64{0, 2}, Idx: []int32{2, 1}, Val: []float64{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-order indices accepted")
	}
	bad = &CSR{Dim: 3, Indptr: []int64{0, 1}, Idx: []int32{3}, Val: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("index beyond dim accepted")
	}
}

func TestFromSparse(t *testing.T) {
	indices := [][]int32{{0, 5}, {2}, {1, 9}}
	values := [][]float64{{1, 2}, {3}, {4, 5}}
	y := []float64{0, 1, 1}
	ds, err := FromSparse(BinaryClassification, 0, indices, values, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 10 {
		t.Fatalf("inferred dim %d, want 10", ds.Dim)
	}
	for i, r := range ds.X {
		if _, ok := r.(*SparseRow); !ok {
			t.Fatalf("16%%-dense upload densified row %d to %T (density %v)", i, r, ds.Density())
		}
	}
	if got := ds.X[2].Dot(make([]float64, 10)); got != 0 {
		t.Fatalf("dot with zeros %v", got)
	}

	// Above-threshold uploads densify.
	dd, err := FromSparse(BinaryClassification, 2, [][]int32{{0, 1}}, [][]float64{{1, 2}}, []float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dd.X[0].(DenseRow); !ok {
		t.Fatalf("100%%-dense upload stayed %T", dd.X[0])
	}

	// Malformed inputs fail loudly.
	if _, err := FromSparse(Regression, 0, [][]int32{{1, 1}}, [][]float64{{1, 2}}, []float64{0}, 0); err == nil {
		t.Fatal("repeated index accepted")
	}
	if _, err := FromSparse(Regression, 3, [][]int32{{4}}, [][]float64{{1}}, []float64{0}, 0); err == nil {
		t.Fatal("index beyond dim accepted")
	}
	if _, err := FromSparse(Regression, 0, [][]int32{{0}}, [][]float64{{1, 2}}, []float64{0}, 0); err == nil {
		t.Fatal("index/value length mismatch accepted")
	}
	if _, err := FromSparse(Regression, 0, [][]int32{{0}}, [][]float64{{1}}, []float64{0, 1}, 0); err == nil {
		t.Fatal("label count mismatch accepted")
	}
}

// TestDensifyMatchesSparse: densification preserves every value bit.
func TestDensifyMatchesSparse(t *testing.T) {
	d := &Dataset{Dim: 5, Task: Regression, Y: []float64{1}}
	d.X = []Row{mustSparse(t, 5, []int32{1, 3}, []float64{0.1, -0.7})}
	want := make([]float64, 5)
	d.X[0].AddTo(want, 1)
	Densify(d)
	got, ok := d.X[0].(DenseRow)
	if !ok {
		t.Fatalf("row stayed %T", d.X[0])
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("feature %d changed", j)
		}
	}
}
