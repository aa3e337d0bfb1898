package models

import (
	"math"

	"blinkml/internal/dataset"
)

// ScoreModel is implemented by models whose prediction depends on x only
// through a small vector of linear scores s_c = θ[c·d:(c+1)·d]ᵀx. The Sample
// Size Estimator exploits this to precompute holdout scores once and then
// probe many candidate sample sizes with O(1) work per example (the §4.3
// spirit of avoiding redundant computation across the binary search). The
// loss, too, reaches θ only through the scores, so class block c of qᵢ is
// (∂ℓ/∂s_c)·x: it is zero off x's stored indices, which is what GradRow
// gathers a sparse row's gradient at.
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

// laneBlock is the most classes a max-entropy model scores on the class
// lanes (Weights), and how many scores a Block takes from them per row
// panel.
const laneBlock = 256

// PredictInto fills out[i] = spec.Predict(theta, rows[i]): the one batch
// prediction loop under the model-difference and accuracy metrics. A
// single-score model's rows go through the row-block kernel and a
// max-entropy model's through pooled Weights (with the lane kernels off,
// linalg.ClassScores runs its scalar loop, the same bits); every other spec
// is asked row by row.
func PredictInto(spec Spec, theta []float64, rows []dataset.Row, out []float64) {
	out = out[:len(rows)]
	if len(rows) == 0 {
		return
	}
	if sm, ok := spec.(ScoreModel); ok && sm.NumScores(len(theta), rows[0].Dim()) == 1 {
		dataset.DotRows(rows, theta, out)
		sm.PredictScores(out, out)
		return
	}
	if w := pooledWeights(spec, theta, rows[0].Dim()); w != nil {
		w.PredictInto(rows, out)
		w.release()
		return
	}
	predictRows(spec, theta, rows, out)
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
