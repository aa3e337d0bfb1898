package dataset

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blinkml/internal/stat"
)

func TestDenseRowOps(t *testing.T) {
	r := DenseRow{1, 2, 3}
	if got := r.Dot([]float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot=%v", got)
	}
	dst := []float64{1, 1, 1}
	r.AddTo(dst, 2)
	want := []float64{3, 5, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AddTo got %v", dst)
		}
	}
	if r.Dim() != 3 || r.NNZ() != 3 {
		t.Error("Dim/NNZ wrong")
	}
}

func TestSparseRowOps(t *testing.T) {
	r, err := NewSparseRow(10, []int32{1, 4, 9}, []float64{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, 10)
	dense[1], dense[4], dense[9] = 1, 1, 1
	if got := r.Dot(dense); got != 9 {
		t.Errorf("sparse Dot=%v", got)
	}
	dst := make([]float64, 10)
	r.AddTo(dst, 0.5)
	if dst[1] != 1 || dst[4] != 1.5 || dst[9] != 2 || dst[0] != 0 {
		t.Errorf("sparse AddTo got %v", dst)
	}
	if r.Dim() != 10 || r.NNZ() != 3 {
		t.Error("sparse Dim/NNZ wrong")
	}
	sum := 0.0
	r.ForEach(func(i int, v float64) { sum += float64(i) * v })
	if sum != 1*2+4*3+9*4 {
		t.Errorf("ForEach sum=%v", sum)
	}
}

func TestNewSparseRowValidation(t *testing.T) {
	if _, err := NewSparseRow(5, []int32{1, 1}, []float64{1, 1}); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, err := NewSparseRow(5, []int32{3, 2}, []float64{1, 1}); err == nil {
		t.Error("out-of-order index accepted")
	}
	if _, err := NewSparseRow(5, []int32{5}, []float64{1}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewSparseRow(5, []int32{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// Property: sparse Dot/AddTo agree with the densified row.
func TestSparseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 5 + r.Intn(20)
		var idx []int32
		var val []float64
		dense := make([]float64, dim)
		for i := 0; i < dim; i++ {
			if r.Float64() < 0.3 {
				v := r.NormFloat64()
				idx = append(idx, int32(i))
				val = append(val, v)
				dense[i] = v
			}
		}
		sp, err := NewSparseRow(dim, idx, val)
		if err != nil {
			return false
		}
		x := make([]float64, dim)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		if math.Abs(sp.Dot(x)-DenseRow(dense).Dot(x)) > 1e-12 {
			return false
		}
		a := make([]float64, dim)
		b := make([]float64, dim)
		sp.AddTo(a, 1.5)
		DenseRow(dense).AddTo(b, 1.5)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{
		X:    []Row{DenseRow{1, 2}, DenseRow{3, 4}},
		Y:    []float64{0, 1},
		Dim:  2,
		Task: BinaryClassification,
		Name: "good",
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{X: good.X, Y: []float64{0, 2}, Dim: 2, Task: BinaryClassification}
	if err := bad.Validate(); err == nil {
		t.Error("binary label 2 accepted")
	}
	nan := &Dataset{X: good.X, Y: []float64{0, math.NaN()}, Dim: 2, Task: Regression}
	if err := nan.Validate(); err == nil {
		t.Error("NaN label accepted")
	}
	wrongDim := &Dataset{X: []Row{DenseRow{1}}, Y: []float64{0}, Dim: 2, Task: Regression}
	if err := wrongDim.Validate(); err == nil {
		t.Error("dim mismatch accepted")
	}
	multi := &Dataset{X: good.X, Y: []float64{0, 3}, Dim: 2, Task: MultiClassification, NumClasses: 3}
	if err := multi.Validate(); err == nil {
		t.Error("class index 3 accepted with K=3")
	}
}

// TestLabelErrorMatchesValidate: Validate refuses a label exactly when
// LabelError does (or, for a class label, when it is K or more).
func TestLabelErrorMatchesValidate(t *testing.T) {
	const k = 4
	for _, task := range []Task{Regression, BinaryClassification, MultiClassification, Unsupervised} {
		for _, y := range []float64{0, 1, 2, 3, 4, 0.5, -1, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
			ds := &Dataset{X: []Row{DenseRow{1}}, Y: []float64{y}, Dim: 1, Task: task, NumClasses: k}
			want := LabelError(task, y) != nil || (task == MultiClassification && y >= k)
			if got := ds.Validate() != nil; got != want {
				t.Errorf("%v label %v: Validate refuses %v, want %v", task, y, got, want)
			}
		}
	}
	if LabelError(BinaryClassification, 2) == nil || LabelError(MultiClassification, 1.5) == nil || LabelError(Regression, math.NaN()) == nil {
		t.Error("LabelError accepts a label its task cannot take")
	}
}

func TestSubset(t *testing.T) {
	d := &Dataset{
		X:    []Row{DenseRow{1}, DenseRow{2}, DenseRow{3}},
		Y:    []float64{10, 20, 30},
		Dim:  1,
		Task: Regression,
	}
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.Y[0] != 30 || s.Y[1] != 10 {
		t.Fatalf("Subset wrong: %+v", s)
	}
	if s.X[0].Dot([]float64{1}) != 3 {
		t.Fatal("Subset rows wrong")
	}
}

// Labels travel with the rows and are checked finite whatever the task:
// an unsupervised payload keeps its labels through the dense and sparse
// constructors and Subset, and refuses a NaN among them, as ReadCSV does.
func TestUnsupervisedKeepsFiniteLabels(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []float64{7, 8, 9}
	dense, err := FromDense(Unsupervised, x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := FromSparse(Unsupervised, 2, [][]int32{{0}, {1}, {0, 1}}, [][]float64{{1}, {2}, {3, 4}}, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*Dataset{dense, sparse} {
		if sub := ds.Subset([]int{2, 0}); !slices.Equal(ds.Y, y) || !slices.Equal(sub.Y, []float64{9, 7}) {
			t.Errorf("%s: labels %v, Subset's %v", ds.Name, ds.Y, sub.Y)
		}
	}
	if _, err := FromDense(Unsupervised, x, []float64{7, math.NaN(), 9}, 0); err == nil {
		t.Error("FromDense accepted a NaN label under an unsupervised task")
	}
	if _, err := ReadCSV(strings.NewReader("1,2,7\n3,4,NaN\n"), -1, Unsupervised); err == nil {
		t.Error("ReadCSV accepted a NaN label under an unsupervised task")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := stat.NewRNG(1)
	idx := SampleWithoutReplacement(rng, 100, 30)
	if len(idx) != 30 {
		t.Fatalf("len=%d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestSampleWithoutReplacementUniformity(t *testing.T) {
	rng := stat.NewRNG(2)
	counts := make([]int, 10)
	trials := 20000
	for t := 0; t < trials; t++ {
		for _, i := range SampleWithoutReplacement(rng, 10, 3) {
			counts[i]++
		}
	}
	expect := float64(trials) * 3 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 0.08*expect {
			t.Errorf("index %d drawn %d times, expected ~%v", i, c, expect)
		}
	}
}

func TestSampleWithoutReplacementPanicsWhenOversized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when n > size")
		}
	}()
	SampleWithoutReplacement(stat.NewRNG(1), 5, 6)
}

func TestNewSplit(t *testing.T) {
	rng := stat.NewRNG(3)
	s := NewSplit(rng, 100, 0.1, 0.2)
	if len(s.Holdout) != 10 || len(s.Test) != 20 || len(s.Train) != 70 {
		t.Fatalf("split sizes %d/%d/%d", len(s.Holdout), len(s.Test), len(s.Train))
	}
	seen := map[int]bool{}
	for _, part := range [][]int{s.Holdout, s.Test, s.Train} {
		for _, i := range part {
			if seen[i] {
				t.Fatalf("index %d in two parts", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("split covers %d of 100", len(seen))
	}
}

func TestNewSplitTinyDataset(t *testing.T) {
	s := NewSplit(stat.NewRNG(4), 3, 0.01, 0.01)
	if len(s.Holdout) < 1 || len(s.Test) < 1 {
		t.Fatalf("tiny split starves a part: %+v", s)
	}
}
