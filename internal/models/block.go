package models

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// blockCols is the most score columns a Block puts through one
// linalg.ClassScores call: four of its sixteen-lane passes over a row.
const blockCols = 64

// blockFloats bounds a Block's interleaved vectors, so that a wide θ (a
// one-hot d of 10⁴) takes one lane group of four columns, not sixteen.
const blockFloats = 1 << 15

// blockDraws is how many parameter vectors of ns scores of d weights a Block
// holds: sixteen single-score vectors (one lane pass), otherwise as many as
// fit in blockCols columns; at most as many lane groups as fit in
// blockFloats, but one at least; and at least one vector.
func blockDraws(ns, d int) int {
	n := 16
	if ns > 1 {
		n = blockCols / ns
	}
	cols := max(4, (blockFloats/max(1, d))&^3)
	return max(1, min(n, cols/ns))
}

// BlockDraws returns how many parameter vectors of spec, paramDim long, one
// Block scores together on holdout, or 0 where v does not go through scores:
// spec is no ScoreModel, it is a Differ, the task is unsupervised, the
// holdout is empty, or the vectors are not NumScores classes of holdout.Dim
// weights. Those keep DiffFrom's per-vector path. It reads no row.
func BlockDraws(spec Spec, paramDim int, holdout *dataset.Dataset) int {
	sm, ok := spec.(ScoreModel)
	if _, own := spec.(Differ); !ok || own || spec.Task() == dataset.Unsupervised || holdout.Len() == 0 {
		return 0
	}
	ns := sm.NumScores(paramDim, holdout.Dim)
	if ns < 1 || ns*holdout.Dim != paramDim {
		return 0
	}
	return blockDraws(ns, holdout.Dim)
}

// A Block scores a few parameter vectors of one ScoreModel on a holdout in
// one pass over its rows, for the estimators that score k or 2k sampled
// vectors. Load the vectors (Vectors, then Set or a write of their own),
// then call Scores or Diffs. The vectors live interleaved in one
// linalg.ClassBlock whose "classes" are the block's (vector, class) columns,
// the only copy of them the block keeps. A dense row then
// gets every column's score from one linalg.ClassScores call, and a sparse
// row adds each stored entry into every column at once; any other row is
// scored by its Dot. Each score still starts at +0 and adds x[j]·θ[j] in j
// order, so it has the bits that vector's Row.Dot gives alone. A Block is
// scratch for one goroutine.
type Block struct {
	sm       ScoreModel
	task     dataset.Task
	rows     []dataset.Row
	ns, d, n int       // scores per vector, features per row, vectors loaded
	t        []float64 // the loaded vectors interleaved
	// One panel of rows: every vector's scores, their predictions, and one
	// vector's predictions gathered.
	z, pred, col []float64
	v            []PredictionDiff // each vector's accumulation in Diffs
	vec          []float64        // one column, for a row scored by its Dot
}

// NewBlock returns an empty Block for BlockDraws(spec, paramDim, holdout)
// vectors, which must be positive.
func NewBlock(spec Spec, paramDim int, holdout *dataset.Dataset) *Block {
	sm := spec.(ScoreModel)
	ns := sm.NumScores(paramDim, holdout.Dim)
	n := blockDraws(ns, holdout.Dim)
	rows := max(1, laneBlock/(n*ns))
	return &Block{
		sm: sm, task: spec.Task(), rows: holdout.X,
		ns: ns, d: holdout.Dim,
		z:    make([]float64, rows*n*ns),
		pred: make([]float64, rows*n),
		col:  make([]float64, rows),
		v:    make([]PredictionDiff, n),
	}
}

// BlockVectors is where a Block keeps its loaded vectors: weight j of
// vector i's class c at T[j·Stride + i·Step + c], for j < Rows (the
// holdout's features) and c < Scores (the spec's NumScores).
type BlockVectors struct {
	T                          []float64
	Rows, Scores, Stride, Step int
}

// Vectors makes the block hold n ≤ BlockDraws vectors and returns their
// interleaved storage for the caller to write. The padding columns past the
// n vectors' are zero; the vectors' own columns keep what they held, so the
// caller writes every one of them.
func (b *Block) Vectors(n int) BlockVectors {
	b.n = n
	b.t = linalg.ClassBlock(b.t, n*b.ns, b.d)
	return BlockVectors{T: b.t, Rows: b.d, Scores: b.ns, Stride: linalg.ClassPad(n * b.ns), Step: b.ns}
}

// Set writes theta, ns·d class-major weights, as loaded vector i.
func (b *Block) Set(i int, theta []float64) {
	linalg.SetClasses(b.t, b.n*b.ns, i*b.ns, theta, b.ns)
}

// score fills z, one entry per loaded column, with row x's scores.
func (b *Block) score(z []float64, x dataset.Row) {
	switch r := x.(type) {
	case dataset.DenseRow:
		linalg.ClassScores(z, r, b.t)
	case *dataset.SparseRow:
		linalg.SparseClassScores(z, r.Idx, r.Val, b.t)
	default:
		if b.vec == nil {
			b.vec = make([]float64, b.d)
		}
		col := b.vec
		for c := range z {
			linalg.ClassColumn(col, b.t, len(z), c)
			z[c] = x.Dot(col)
		}
	}
}

// Scores fills outs[i][r·ns+c] with score c of holdout row r under loaded
// vector i, for every one of the n = len(outs) loaded vectors.
func (b *Block) Scores(outs [][]float64) {
	ns := b.ns
	z := b.z[:b.n*ns]
	for r, x := range b.rows {
		b.score(z, x)
		for i, out := range outs {
			o, zi := out[r*ns:(r+1)*ns], z[i*ns:]
			for c := range o {
				o[c] = zi[c]
			}
		}
	}
}

// Diffs fills vs[i] with v(m_a, m_i) for the n = len(vs) loaded vectors,
// where pa holds m_a's holdout predictions: DiffFrom(spec, θ_a, holdout)
// for each vector, bit for bit. A panel of rows goes through one
// PredictScores call for all n vectors, and each vector's predictions then
// through its PredictionDiff, in row order.
func (b *Block) Diffs(pa, vs []float64) {
	n, cols := b.n, b.n*b.ns
	v := b.v[:n]
	for i := range v {
		v[i] = NewPredictionDiff(b.task)
	}
	per := len(b.col)
	for lo := 0; lo < len(b.rows); lo += per {
		m := min(per, len(b.rows)-lo)
		z, pred, col := b.z[:m*cols], b.pred[:m*n], b.col[:m]
		for r, x := range b.rows[lo : lo+m] {
			b.score(z[r*cols:][:cols], x)
		}
		b.sm.PredictScores(z, pred)
		for i := range v {
			for r := range col {
				col[r] = pred[r*n+i]
			}
			v[i].AddRows(pa[lo:lo+m], col)
		}
	}
	for i := range v {
		vs[i] = v[i].Value()
	}
}
