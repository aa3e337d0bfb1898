package models

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// blockCols is the most score columns a Block puts through one
// linalg.ClassScores call: four of its sixteen-lane passes over a row.
const blockCols = 64

// blockDraws is how many parameter vectors of ns scores a Block holds:
// sixteen single-score vectors (one lane pass), otherwise as many as fit in
// blockCols columns, and at least one.
func blockDraws(ns int) int {
	if ns == 1 {
		return 16
	}
	return max(1, blockCols/ns)
}

// BlockDraws returns how many parameter vectors of spec, paramDim long, one
// Block scores together on holdout, or 0 where the block path does not
// apply: spec is no ScoreModel, its v does not go through predictions (a
// Differ, an unsupervised task), the holdout is empty, or one of its rows
// is not a dense row as wide as the holdout. Those keep the per-vector
// paths of Scores and DiffFrom.
func BlockDraws(spec Spec, paramDim int, holdout *dataset.Dataset) int {
	sm, ok := spec.(ScoreModel)
	if _, own := spec.(Differ); !ok || own || spec.Task() == dataset.Unsupervised || holdout.Len() == 0 {
		return 0
	}
	ns := sm.NumScores(paramDim, holdout.Dim)
	if ns < 1 || ns*holdout.Dim != paramDim {
		return 0
	}
	for _, x := range holdout.X {
		if r, ok := x.(dataset.DenseRow); !ok || len(r) != holdout.Dim {
			return 0
		}
	}
	return blockDraws(ns)
}

// A Block scores a few parameter vectors of one ScoreModel on a dense
// holdout in one pass over its rows, for the estimators that score k or 2k
// sampled vectors. Fill the vectors through Vec, then call Scores or Diffs:
// the vectors, stacked one after another, are interleaved once with
// linalg.InterleaveClasses, and each row then gets every vector's scores
// from one linalg.ClassScores call, whose "classes" are the block's
// (vector, class) columns. Each score still starts at +0 and adds x[j]·θ[j]
// in j order, so it has the bits Scores gives that vector alone. A Block is
// scratch for one goroutine.
type Block struct {
	sm    ScoreModel
	task  dataset.Task
	rows  []dataset.Row
	ns, d int       // scores per vector, features per row
	stack []float64 // the vectors, one after another
	t     []float64 // the loaded vectors interleaved
	// One panel of rows: every vector's scores, their predictions, and one
	// vector's predictions gathered.
	z, pred, col []float64
	v            []PredictionDiff // each vector's accumulation in Diffs
}

// NewBlock returns an empty Block for BlockDraws(spec, paramDim, holdout)
// vectors, which must be positive.
func NewBlock(spec Spec, paramDim int, holdout *dataset.Dataset) *Block {
	sm := spec.(ScoreModel)
	ns := sm.NumScores(paramDim, holdout.Dim)
	n := blockDraws(ns)
	rows := max(1, laneBlock/(n*ns))
	return &Block{
		sm: sm, task: spec.Task(), rows: holdout.X,
		ns: ns, d: holdout.Dim,
		stack: make([]float64, n*paramDim),
		z:     make([]float64, rows*n*ns),
		pred:  make([]float64, rows*n),
		col:   make([]float64, rows),
		v:     make([]PredictionDiff, n),
	}
}

// Vec returns the storage of the block's vector i, to be filled before the
// next Scores or Diffs.
func (b *Block) Vec(i int) []float64 {
	p := b.ns * b.d
	return b.stack[i*p : (i+1)*p]
}

// load interleaves the first n vectors and returns their column count.
func (b *Block) load(n int) int {
	cols := n * b.ns
	b.t = linalg.InterleaveClasses(b.t, b.stack, cols, b.d)
	return cols
}

// Scores fills outs[i][r·ns+c] with score c of holdout row r under vector
// i, for the first n = len(outs) vectors: Scores(Vec(i), rows, ns, outs[i])
// for each, bit for bit.
func (b *Block) Scores(outs [][]float64) {
	ns, cols := b.ns, b.load(len(outs))
	z := b.z[:cols]
	for r, x := range b.rows {
		linalg.ClassScores(z, x.(dataset.DenseRow), b.t)
		for i, out := range outs {
			o, zi := out[r*ns:(r+1)*ns], z[i*ns:]
			for c := range o {
				o[c] = zi[c]
			}
		}
	}
}

// Diffs fills vs[i] with v(m_a, m_i) for the first n = len(vs) vectors,
// where pa holds m_a's holdout predictions: DiffFrom(spec, θ_a, holdout)
// for each vector, bit for bit. A panel of rows goes through one
// PredictScores call for all n vectors, and each vector's predictions then
// through its PredictionDiff, in row order.
func (b *Block) Diffs(pa, vs []float64) {
	n := len(vs)
	cols := b.load(n)
	v := b.v[:n]
	for i := range v {
		v[i] = NewPredictionDiff(b.task)
	}
	per := len(b.col)
	for lo := 0; lo < len(b.rows); lo += per {
		m := min(per, len(b.rows)-lo)
		z, pred, col := b.z[:m*cols], b.pred[:m*n], b.col[:m]
		for r, x := range b.rows[lo : lo+m] {
			linalg.ClassScores(z[r*cols:][:cols], x.(dataset.DenseRow), b.t)
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
