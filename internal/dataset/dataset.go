// Package dataset defines BlinkML's training-data representation: rows that
// may be dense or sparse, labeled datasets, uniform random sampling without
// replacement, and the train/holdout split the accuracy estimator needs.
//
// Sparse rows are what make the paper's high-dimensional regimes (Criteo at
// ~10⁶ one-hot features, Yelp bag-of-words) representable in memory: row
// storage is O(nnz), and every model computes gradients through the Row
// interface so the cost of a gradient step is O(nnz) too.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"blinkml/internal/stat"
)

// Row is one feature vector. Implementations must be immutable after
// construction; the package exposes dense and sparse implementations.
type Row interface {
	// Dot returns the inner product with a dense vector of length >= Dim.
	Dot(dense []float64) float64
	// AddTo accumulates scale * row into dst (len(dst) >= Dim).
	AddTo(dst []float64, scale float64)
	// Dim returns the ambient dimensionality.
	Dim() int
	// NNZ returns the number of stored (possibly non-zero) entries.
	NNZ() int
	// ForEach calls fn for every stored entry.
	ForEach(fn func(idx int, val float64))
}

// DenseRow is a dense feature vector.
type DenseRow []float64

// Dot implements Row. The adds are strictly sequential in index order; the
// 4-way unroll only sheds loop and bounds-check overhead. That matters
// because the chain of dependent adds leaves the core idle enough to overlap
// the next row's chain with this one's — if both fit in its reorder window.
func (r DenseRow) Dot(dense []float64) float64 {
	d := dense[:len(r)]
	var s float64
	i := 0
	for ; i+4 <= len(r); i += 4 {
		s += r[i] * d[i]
		s += r[i+1] * d[i+1]
		s += r[i+2] * d[i+2]
		s += r[i+3] * d[i+3]
	}
	for ; i < len(r); i++ {
		s += r[i] * d[i]
	}
	return s
}

// AddTo implements Row.
func (r DenseRow) AddTo(dst []float64, scale float64) {
	for i, v := range r {
		dst[i] += scale * v
	}
}

// Dim implements Row.
func (r DenseRow) Dim() int { return len(r) }

// NNZ implements Row.
func (r DenseRow) NNZ() int { return len(r) }

// ForEach implements Row.
func (r DenseRow) ForEach(fn func(idx int, val float64)) {
	for i, v := range r {
		fn(i, v)
	}
}

// SparseRow is a compressed sparse feature vector with sorted indices.
type SparseRow struct {
	N   int // ambient dimension
	Idx []int32
	Val []float64
}

// NewSparseRow builds a sparse row; idx must be strictly increasing and
// within [0, dim).
func NewSparseRow(dim int, idx []int32, val []float64) (*SparseRow, error) {
	if len(idx) != len(val) {
		return nil, fmt.Errorf("dataset: index/value length mismatch %d != %d", len(idx), len(val))
	}
	prev := int32(-1)
	for _, i := range idx {
		if i <= prev || int(i) >= dim {
			return nil, fmt.Errorf("dataset: sparse index %d out of order or out of range [0,%d)", i, dim)
		}
		prev = i
	}
	return &SparseRow{N: dim, Idx: idx, Val: val}, nil
}

// Dot implements Row. The accumulation is strictly sequential in index
// order — the 4-way unroll only removes loop/bounds overhead, never
// reorders an add — so results are bit-identical to the naive loop.
func (r *SparseRow) Dot(dense []float64) float64 {
	idx := r.Idx
	val := r.Val[:len(idx)]
	var s float64
	k := 0
	for ; k+4 <= len(idx); k += 4 {
		s += val[k] * dense[idx[k]]
		s += val[k+1] * dense[idx[k+1]]
		s += val[k+2] * dense[idx[k+2]]
		s += val[k+3] * dense[idx[k+3]]
	}
	for ; k < len(idx); k++ {
		s += val[k] * dense[idx[k]]
	}
	return s
}

// AddTo implements Row. Entries touch distinct slots, so the unroll cannot
// change any accumulation order.
func (r *SparseRow) AddTo(dst []float64, scale float64) {
	idx := r.Idx
	val := r.Val[:len(idx)]
	k := 0
	for ; k+4 <= len(idx); k += 4 {
		dst[idx[k]] += scale * val[k]
		dst[idx[k+1]] += scale * val[k+1]
		dst[idx[k+2]] += scale * val[k+2]
		dst[idx[k+3]] += scale * val[k+3]
	}
	for ; k < len(idx); k++ {
		dst[idx[k]] += scale * val[k]
	}
}

// Dim implements Row.
func (r *SparseRow) Dim() int { return r.N }

// NNZ implements Row.
func (r *SparseRow) NNZ() int { return len(r.Idx) }

// ForEach implements Row.
func (r *SparseRow) ForEach(fn func(idx int, val float64)) {
	for k, i := range r.Idx {
		fn(int(i), r.Val[k])
	}
}

// Task tags the label semantics of a dataset.
type Task int

const (
	// Regression labels are real-valued targets.
	Regression Task = iota
	// BinaryClassification labels are 0 or 1.
	BinaryClassification
	// MultiClassification labels are class indices 0..K-1 stored as float64.
	MultiClassification
	// Unsupervised datasets (PPCA) train on no labels; any they hold
	// travel with the rows.
	Unsupervised
)

// String returns the wire name of the task ("regression", "binary",
// "multiclass", "unsupervised") — the inverse of ParseTask.
func (t Task) String() string {
	switch t {
	case Regression:
		return "regression"
	case BinaryClassification:
		return "binary"
	case MultiClassification:
		return "multiclass"
	case Unsupervised:
		return "unsupervised"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// ParseTask maps a wire task name back to the constant.
func ParseTask(s string) (Task, error) {
	switch s {
	case "regression":
		return Regression, nil
	case "binary":
		return BinaryClassification, nil
	case "multiclass":
		return MultiClassification, nil
	case "unsupervised":
		return Unsupervised, nil
	default:
		return 0, fmt.Errorf("dataset: unknown task %q (want regression|binary|multiclass|unsupervised)", s)
	}
}

// Dataset is an in-memory labeled dataset.
type Dataset struct {
	X []Row
	// Y holds one label a row. A supervised task must have them; an
	// unsupervised one keeps those its file, payload or store holds, or
	// none. Every label is finite, whatever the task.
	Y          []float64
	Dim        int
	Task       Task
	NumClasses int // populated for MultiClassification
	Name       string
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks internal consistency and finiteness of the labels.
func (d *Dataset) Validate() error {
	if d.Task != Unsupervised && len(d.Y) != len(d.X) {
		return fmt.Errorf("dataset %q: %d rows but %d labels", d.Name, len(d.X), len(d.Y))
	}
	for i, r := range d.X {
		if r.Dim() != d.Dim {
			return fmt.Errorf("dataset %q: row %d has dim %d, want %d", d.Name, i, r.Dim(), d.Dim)
		}
	}
	for i, y := range d.Y {
		if err := LabelError(d.Task, y); err != nil {
			return fmt.Errorf("dataset %q: row %d: %w", d.Name, i, err)
		}
		if d.Task == MultiClassification && int(y) >= d.NumClasses {
			return fmt.Errorf("dataset %q: row %d: class label is %v (K=%d)", d.Name, i, y, d.NumClasses)
		}
	}
	return nil
}

// LabelError says why y is not a label of the task (not finite, a binary
// label other than 0 or 1, a class label that is not a non-negative
// integer), or returns nil when it is one. It is the one label check of the
// in-memory constructors and the store's ingest.
func LabelError(task Task, y float64) error {
	switch c := int(y); {
	case math.IsNaN(y) || math.IsInf(y, 0):
		return errors.New("label is not finite")
	case task == BinaryClassification && y != 0 && y != 1:
		return fmt.Errorf("binary label is %v (want 0 or 1)", y)
	case task == MultiClassification && (float64(c) != y || c < 0):
		return fmt.Errorf("class label is %v (want a non-negative integer)", y)
	}
	return nil
}

// FirstNonFinite finds a row's first NaN or ±Inf value: val holds the
// row's stored values and idx, for a sparse row, their feature indices (nil
// for a dense row). It returns that value's feature index and the value, or
// found false when every value is finite. It is the one feature check of
// the in-memory constructors and the store's ingest.
func FirstNonFinite(idx []int32, val []float64) (j int, v float64, found bool) {
	for k, v := range val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if idx != nil {
				return int(idx[k]), v, true
			}
			return k, v, true
		}
	}
	return 0, 0, false
}

// Subset returns a view over the given row indices (rows are shared, not
// copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		X:          make([]Row, len(idx)),
		Dim:        d.Dim,
		Task:       d.Task,
		NumClasses: d.NumClasses,
		Name:       d.Name,
	}
	labeled := d.Task != Unsupervised || len(d.Y) > 0
	if labeled {
		sub.Y = make([]float64, len(idx))
	}
	for j, i := range idx {
		sub.X[j] = d.X[i]
		if labeled {
			sub.Y[j] = d.Y[i]
		}
	}
	return sub
}

// errNoRows and errEmptyRows refuse inputs a model cannot be trained on:
// no examples at all, or examples with no features.
var (
	errNoRows    = errors.New("dataset: no rows")
	errEmptyRows = errors.New("dataset: rows are empty")
)

// FromDense builds a Dataset from dense row-major data: the shared
// materialization path for inline payloads (serving-layer requests, cluster
// task payloads). For MultiClassification, classes 0 infers K from the
// labels. Unsupervised data keeps any labels y holds. The result is
// validated.
func FromDense(task Task, x [][]float64, y []float64, classes int) (*Dataset, error) {
	return build{name: "inline", task: task, x: x, y: y, classes: classes}.dataset()
}

// build is what a constructor gathers for the one tail every constructor
// ends in (FromDense, FromSparse, ReadCSVOpts, ReadLibSVMOpts).
type build struct {
	name    string
	task    Task
	x       [][]float64 // dense rows, or
	csr     *CSR        // sparse rows packed into one block; Dim 0 infers one past the largest index
	y       []float64   // one label a row; a supervised task must have them, an unsupervised one keeps any
	classes int         // K for MultiClassification; 0 infers it from y
}

// dataset is the constructors' shared tail: it checks the rows and refuses a
// NaN or ±Inf feature, densifying sparse rows above DefaultDenseThreshold;
// attaches and counts the labels; infers the class count when none is
// given; and validates the result.
func (b build) dataset() (*Dataset, error) {
	ds := &Dataset{Task: b.task, Name: b.name}
	var err error
	if b.csr != nil {
		err = ds.fillSparse(b.csr)
	} else {
		err = ds.fillDense(b.x)
	}
	if err != nil {
		return nil, err
	}
	if len(b.y) > 0 || b.task != Unsupervised {
		if len(b.y) != len(ds.X) {
			return nil, fmt.Errorf("dataset: %d rows but %d labels", len(ds.X), len(b.y))
		}
		ds.Y = b.y
	}
	if b.task == MultiClassification {
		if ds.NumClasses = b.classes; ds.NumClasses == 0 {
			ds.NumClasses = int(slices.Max(b.y)) + 1
		}
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// fillDense sets ds's rows to x, as wide as the first (Validate refuses
// any other width).
func (ds *Dataset) fillDense(x [][]float64) error {
	if len(x) == 0 {
		return errNoRows
	}
	if ds.Dim = len(x[0]); ds.Dim == 0 {
		return errEmptyRows
	}
	ds.X = make([]Row, len(x))
	for i, v := range x {
		if j, f, found := FirstNonFinite(nil, v); found {
			return fmt.Errorf("dataset: row %d: feature %d is %v, not a finite value", i, j, f)
		}
		ds.X[i] = DenseRow(v)
	}
	return nil
}

// fillSparse sets ds's rows to views over the block c, densified when its
// density exceeds DefaultDenseThreshold.
func (ds *Dataset) fillSparse(c *CSR) error {
	n := c.NRows()
	if n == 0 {
		return errNoRows
	}
	if c.Dim <= 0 && c.NNZ() > 0 {
		c.Dim = int(slices.Max(c.Idx)) + 1
	}
	if c.Dim <= 0 {
		return errEmptyRows
	}
	if err := c.Validate(); err != nil {
		return err
	}
	for i := range n {
		lo, hi := c.Indptr[i], c.Indptr[i+1]
		if j, f, found := FirstNonFinite(c.Idx[lo:hi], c.Val[lo:hi]); found {
			return fmt.Errorf("dataset: row %d: feature %d is %v, not a finite value", i, j, f)
		}
	}
	if ds.Dim, ds.X = c.Dim, c.Rows(); ds.Density() > DefaultDenseThreshold {
		Densify(ds)
	}
	return nil
}

// SampleWithoutReplacement returns n distinct uniform indices into a
// population of the given size: the first n positions of a Fisher–Yates
// shuffle of [0, size). It panics if n > size; callers are expected to clamp
// first.
func SampleWithoutReplacement(rng *stat.RNG, size, n int) []int {
	if n > size {
		panic(fmt.Sprintf("dataset: sample size %d exceeds population %d", n, size))
	}
	return NewShuffle(size).Extend(rng, n)
}

// Shuffle is a Fisher–Yates shuffle of [0, size) drawn one position at a
// time and kept sparse: a position never displaced holds its own index, so
// only the displaced ones are stored and an n-prefix costs O(n) memory
// whatever the population. Extended from one RNG it visits exactly the
// states of a single run to the last position, so every prefix is a prefix
// of every longer one and equals what SampleWithoutReplacement draws from
// the same RNG state.
type Shuffle struct {
	size  int
	drawn []int
	// The displaced positions, as an open-addressing table of (position+1,
	// index) pairs with linear probing; 0 marks a free slot. At most one
	// entry per draw, none ever removed. (A Go map here costs more bytes
	// than the N-long index it replaces once n reaches N/8.)
	table []int
}

// NewShuffle starts a shuffle of [0, size) with nothing drawn.
func NewShuffle(size int) *Shuffle { return &Shuffle{size: size} }

// Extend returns the first n positions of the shuffle (n ≤ size), drawing
// those beyond the ones already fixed from rng. The result is a view that
// stays valid, and unchanged, across later calls.
func (s *Shuffle) Extend(rng *stat.RNG, n int) []int {
	if n <= len(s.drawn) {
		return s.drawn[:n:n]
	}
	s.drawn = slices.Grow(s.drawn, n-len(s.drawn))
	s.reserve(n)
	for i := len(s.drawn); i < n; i++ {
		j := i + rng.Intn(s.size-i)
		pj := s.slot(j)
		if s.table[pj] == 0 {
			s.table[pj], s.table[pj+1] = j+1, j
		}
		s.drawn = append(s.drawn, s.table[pj+1])
		// Position i is final after this step, so its index moves to j and
		// nothing is stored back at i.
		at := i
		if pi := s.slot(i); s.table[pi] != 0 {
			at = s.table[pi+1]
		}
		s.table[pj+1] = at
	}
	return s.drawn[:n:n]
}

// Bytes is the memory the shuffle holds (0 for nil).
func (s *Shuffle) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(cap(s.drawn)+len(s.table)) * 8
}

// slot returns the table offset of pos's entry, or of the free slot where
// it would go.
func (s *Shuffle) slot(pos int) int {
	mask := len(s.table)/2 - 1
	h := int(uint64(pos)*0x9E3779B97F4A7C15>>32) & mask
	for s.table[2*h] != 0 && s.table[2*h] != pos+1 {
		h = (h + 1) & mask
	}
	return 2 * h
}

// reserve sizes the table for a prefix of n draws at a load of at most 3/4.
func (s *Shuffle) reserve(n int) {
	slots := 8
	for 3*slots < 4*n {
		slots *= 2
	}
	if 2*slots <= len(s.table) {
		return
	}
	old := s.table
	s.table = make([]int, 2*slots)
	for k := 0; k < len(old); k += 2 {
		if old[k] != 0 {
			p := s.slot(old[k] - 1)
			s.table[p], s.table[p+1] = old[k], old[k+1]
		}
	}
}

// Split holds the three index sets BlinkML works with: the training pool
// (what "the full model" would train on), the holdout used by diff(), and a
// test set for generalization-error reporting.
type Split struct {
	Train   []int
	Holdout []int
	Test    []int
}

// NewSplit shuffles [0, n) with the given RNG and carves off holdout and
// test fractions (the remainder is the training pool). Fractions are
// clamped so every part gets at least one row when n >= 3.
func NewSplit(rng *stat.RNG, n int, holdoutFrac, testFrac float64) Split {
	perm := rng.Perm(n)
	h, t := SplitSizes(n, holdoutFrac, testFrac)
	return Split{
		Holdout: perm[:h:h],
		Test:    perm[h : h+t : h+t],
		Train:   perm[h+t:],
	}
}

// SplitSizes returns the holdout and test row counts NewSplit would carve
// from n rows, without building the permutation. It exists so a scheduler
// can know a pool's size (n − holdout − test) from dataset metadata alone —
// no rows touched, no O(n) index allocation.
func SplitSizes(n int, holdoutFrac, testFrac float64) (holdout, test int) {
	h := int(float64(n) * holdoutFrac)
	t := int(float64(n) * testFrac)
	if n >= 3 {
		if h < 1 {
			h = 1
		}
		if t < 1 && testFrac > 0 {
			t = 1
		}
	}
	if h+t > n {
		h, t = n/2, n-n/2
	}
	return h, t
}
