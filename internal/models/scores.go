package models

import (
	"math"
	"sync"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// ScoreModel is implemented by models whose prediction depends on x only
// through a small vector of linear scores s_c = θ[c·d:(c+1)·d]ᵀx. The Sample
// Size Estimator exploits this to precompute holdout scores once and then
// probe many candidate sample sizes with O(1) work per example (the §4.3
// spirit of avoiding redundant computation across the binary search).
type ScoreModel interface {
	// NumScores returns the score-vector length (1 for GLMs, K for the
	// max-entropy classifier).
	NumScores(paramDim, featureDim int) int
	// PredictScores maps len(out) score vectors, laid one after another in
	// scores, to the model's predictions: out[i] must equal Predict(θ, x)
	// for the scores of (θ, x). It is a batch call so that a caller pays one
	// dispatch per block of rows, not one per row. With one score per row,
	// scores and out may be the same slice.
	PredictScores(scores, out []float64)
}

// laneScratch is what the class lanes read and write besides their
// arguments: θ's classes interleaved (linalg.InterleaveClasses) and a block
// of rows' scores for PredictInto. It is pooled, so that scoring a batch
// allocates nothing.
type laneScratch struct {
	t []float64
	z [laneBlock]float64
}

// laneBlock is how many scores PredictInto takes from the class lanes per
// batch call of PredictScores.
const laneBlock = 256

var lanePool = sync.Pool{New: func() any { return new(laneScratch) }}

// getLanes returns pooled scratch holding the ns classes of theta
// interleaved; the caller puts it back into lanePool.
func getLanes(theta []float64, ns int) *laneScratch {
	l := lanePool.Get().(*laneScratch)
	l.t = linalg.InterleaveClasses(l.t, theta, ns, len(theta)/ns)
	return l
}

// laneScores fills out[i·ns+c] = θ[c·d:(c+1)·d]ᵀ·rows[i] from the
// interleaved weights t: a dense row as wide as θ's classes goes through
// linalg.ClassScores (the classes as lanes, each score's adds in
// logitsInto's order), any other row through logitsInto.
func laneScores(theta, t []float64, rows []dataset.Row, ns int, out []float64) {
	d := len(theta) / ns
	for i, x := range rows {
		z := out[i*ns : (i+1)*ns]
		if r, ok := x.(dataset.DenseRow); ok && len(r) == d {
			linalg.ClassScores(z, r, t)
		} else {
			logitsInto(theta, x, ns, x.Dim(), z)
		}
	}
}

// PredictInto fills out[i] = spec.Predict(theta, rows[i]): the one batch
// prediction loop under the model-difference and accuracy metrics and the
// serving layer. A single-score model's rows go through the row-block
// kernel and a multi-score model's, with the class lanes on, through them
// a block of rows at a time; every other spec is asked row by row.
func PredictInto(spec Spec, theta []float64, rows []dataset.Row, out []float64) {
	out = out[:len(rows)]
	sm, ok := spec.(ScoreModel)
	if !ok || len(rows) == 0 {
		predictRows(spec, theta, rows, out)
		return
	}
	switch ns := sm.NumScores(len(theta), rows[0].Dim()); {
	case ns == 1:
		dataset.DotRows(rows, theta, out)
		sm.PredictScores(out, out)
	case ns > 1 && ns <= laneBlock && linalg.Lanes():
		l := getLanes(theta, ns)
		per := laneBlock / ns
		for lo := 0; lo < len(rows); lo += per {
			hi := min(lo+per, len(rows))
			z := l.z[:(hi-lo)*ns]
			laneScores(theta, l.t, rows[lo:hi], ns, z)
			sm.PredictScores(z, out[lo:hi])
		}
		lanePool.Put(l)
	default:
		predictRows(spec, theta, rows, out)
	}
}

func predictRows(spec Spec, theta []float64, rows []dataset.Row, out []float64) {
	for i, x := range rows {
		out[i] = spec.Predict(theta, x)
	}
}

// NumScores implements ScoreModel.
func (LinearRegression) NumScores(paramDim, featureDim int) int { return 1 }

// PredictScores implements ScoreModel.
func (LinearRegression) PredictScores(scores, out []float64) { copy(out, scores) }

// NumScores implements ScoreModel.
func (LogisticRegression) NumScores(paramDim, featureDim int) int { return 1 }

// PredictScores implements ScoreModel.
func (LogisticRegression) PredictScores(scores, out []float64) {
	for i, z := range scores[:len(out)] {
		// An integer select compiles without a branch; the sign of a score
		// is a coin flip the branch predictor loses half the time.
		var label int
		if z >= 0 {
			label = 1
		}
		out[i] = float64(label)
	}
}

// NumScores implements ScoreModel.
func (PoissonRegression) NumScores(paramDim, featureDim int) int { return 1 }

// PredictScores implements ScoreModel.
func (PoissonRegression) PredictScores(scores, out []float64) {
	for i, z := range scores[:len(out)] {
		if z > linPredCap {
			z = linPredCap
		}
		out[i] = math.Exp(z)
	}
}

// NumScores implements ScoreModel.
func (m MaxEntropy) NumScores(paramDim, featureDim int) int { return paramDim / featureDim }

// PredictScores implements ScoreModel: per row, the argmax over its class
// scores.
func (m MaxEntropy) PredictScores(scores, out []float64) {
	if len(out) == 0 {
		return
	}
	ns := len(scores) / len(out)
	for i := range out {
		out[i] = float64(argmax(scores[i*ns : (i+1)*ns]))
	}
}

// argmax returns the index of the largest element, the lowest such index on
// ties, ignoring NaNs; 0 when no element exceeds −Inf.
func argmax(z []float64) int {
	best, bestKey := 0, orderKey(math.Inf(-1))
	for c, v := range z {
		if k := orderKey(v); k > bestKey {
			best, bestKey = c, k
		}
	}
	return best
}

// orderKey maps v to an integer ordered as v is among floats, so that the
// running maximum of argmax is an integer select and not a branch (which of
// ten class scores is a new maximum is a guess the predictor loses about
// three times per row). −0 and +0 share a key; NaN gets the least key, so —
// as under v > best — it never wins.
func orderKey(v float64) int64 {
	k := int64(math.Float64bits(v + 0)) // −0 + 0 = +0
	k ^= (k >> 63) & math.MaxInt64
	if v != v {
		k = math.MinInt64
	}
	return k
}
