package models

import (
	"math"

	"blinkml/internal/dataset"
)

// ScoreModel is implemented by models whose prediction depends on x only
// through a small vector of linear scores s_c = θ_cᵀx. The Sample Size
// Estimator exploits this to precompute holdout scores once and then probe
// many candidate sample sizes with O(1) work per example (the §4.3 spirit
// of avoiding redundant computation across the binary search).
type ScoreModel interface {
	// NumScores returns the score-vector length (1 for GLMs, K for the
	// max-entropy classifier).
	NumScores(paramDim, featureDim int) int
	// Scores fills out[c] = θ[c·d:(c+1)·d]ᵀ·x.
	Scores(theta []float64, x dataset.Row, out []float64)
	// PredictScores maps a score vector to the model's prediction; it must
	// agree with Predict(θ, x) when given Scores(θ, x).
	PredictScores(scores []float64) float64
}

// NumScores implements ScoreModel.
func (LinearRegression) NumScores(paramDim, featureDim int) int { return 1 }

// Scores implements ScoreModel.
func (LinearRegression) Scores(theta []float64, x dataset.Row, out []float64) {
	out[0] = x.Dot(theta)
}

// PredictScores implements ScoreModel.
func (LinearRegression) PredictScores(scores []float64) float64 { return scores[0] }

// NumScores implements ScoreModel.
func (LogisticRegression) NumScores(paramDim, featureDim int) int { return 1 }

// Scores implements ScoreModel.
func (LogisticRegression) Scores(theta []float64, x dataset.Row, out []float64) {
	out[0] = x.Dot(theta)
}

// PredictScores implements ScoreModel.
func (LogisticRegression) PredictScores(scores []float64) float64 {
	if scores[0] >= 0 {
		return 1
	}
	return 0
}

// NumScores implements ScoreModel.
func (PoissonRegression) NumScores(paramDim, featureDim int) int { return 1 }

// Scores implements ScoreModel.
func (PoissonRegression) Scores(theta []float64, x dataset.Row, out []float64) {
	out[0] = x.Dot(theta)
}

// PredictScores implements ScoreModel.
func (PoissonRegression) PredictScores(scores []float64) float64 {
	z := scores[0]
	if z > linPredCap {
		z = linPredCap
	}
	return math.Exp(z)
}

// NumScores implements ScoreModel.
func (m MaxEntropy) NumScores(paramDim, featureDim int) int { return paramDim / featureDim }

// Scores implements ScoreModel.
func (m MaxEntropy) Scores(theta []float64, x dataset.Row, out []float64) {
	d := x.Dim()
	logitsInto(theta, x, len(theta)/d, d, out)
}

// PredictScores implements ScoreModel.
func (m MaxEntropy) PredictScores(scores []float64) float64 {
	best, bestZ := 0, math.Inf(-1)
	for c, z := range scores {
		if z > bestZ {
			best, bestZ = c, z
		}
	}
	return float64(best)
}
