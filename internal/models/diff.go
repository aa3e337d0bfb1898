package models

import (
	"math"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// Diff computes the model difference v between two parameter vectors of the
// same model class on a holdout set (the paper's diff MCS method, §2.1 and
// Appendix C):
//
//   - classification: the disagreement rate E[1{m_a(x) ≠ m_b(x)}];
//   - regression: the RMS prediction difference normalized by the RMS of
//     the first model's predictions (substitution S6 — makes 1−v read as a
//     relative accuracy, as the paper's plots do);
//   - unsupervised (PPCA): 1 − cosine(θ_a, θ_b) on flattened parameters.
//
// The result is clamped to [0, 1] for classification and unsupervised
// tasks; the normalized regression difference is clamped to [0, 1] as well
// since a 100% relative deviation already means "no fidelity left".
//
// A spec implementing Differ overrides the default metric entirely (the
// experiments use this to reproduce the paper's unnormalized Appendix-C
// regression difference where the figure calls for it).
func Diff(spec Spec, thetaA, thetaB []float64, holdout *dataset.Dataset) float64 {
	if d, ok := spec.(Differ); ok {
		return d.Diff(thetaA, thetaB, holdout)
	}
	if spec.Task() == dataset.Unsupervised {
		return clamp01(1 - linalg.Cosine(thetaA, thetaB))
	}
	n := holdout.Len()
	pa, pb := make([]float64, n), make([]float64, n)
	PredictInto(spec, thetaA, holdout.X, pa)
	PredictInto(spec, thetaB, holdout.X, pb)
	v := NewPredictionDiff(spec.Task())
	v.AddRows(pa, pb)
	return v.Value()
}

// PredictionDiff accumulates v(m_a, m_b) for a supervised task from the two
// models' predictions on the same rows: feed every row's pair to AddRows,
// then read Value. It is the one statement of the metric: Diff,
// Block.Diffs, the Sample Size Estimator's score path and the accuracy
// estimator's per-draw path differ only in where the predictions come
// from (SignFlips is its sign-label case, fused).
type PredictionDiff struct {
	classify       bool
	n, disagree    int
	sqDiff, sqBase float64
}

// NewPredictionDiff starts an accumulation for task.
func NewPredictionDiff(task dataset.Task) PredictionDiff {
	return PredictionDiff{classify: task == dataset.BinaryClassification || task == dataset.MultiClassification}
}

// AddRows records a block of rows' predictions under m_a and m_b, in order.
func (v *PredictionDiff) AddRows(pa, pb []float64) {
	pb = pb[:len(pa)]
	v.n += len(pa)
	if v.classify {
		for i, a := range pa {
			if a != pb[i] {
				v.disagree++
			}
		}
		return
	}
	for i, a := range pa {
		d := a - pb[i]
		v.sqDiff += d * d
		v.sqBase += a * a
	}
}

// Value returns v over the rows added so far (0 for none).
func (v *PredictionDiff) Value() float64 {
	if v.n == 0 {
		return 0
	}
	n := float64(v.n)
	if v.classify {
		return float64(v.disagree) / n
	}
	base := math.Sqrt(v.sqBase / n)
	if base < 1e-12 {
		base = 1e-12
	}
	return clamp01(math.Sqrt(v.sqDiff/n) / base)
}

// SignLabels reports whether spec predicts from its one score s the label
// 1 when s ≥ 0 and 0 otherwise (logistic regression): the case SignFlips
// measures.
func SignLabels(spec Spec) bool {
	_, ok := spec.(LogisticRegression)
	return ok
}

// SignFlips returns v(m_n, m_N) for a SignLabels spec from the Sample Size
// Estimator's holdout scores, in one pass: per row, scN = b + a1·s1 and
// scNN = scN + a2·s2, and v is the share of rows where scN ≥ 0 and scNN ≥ 0
// disagree. It is what PredictScores on both score vectors and a
// PredictionDiff over the two label vectors give, bit for bit.
func SignFlips(base, s1, s2 []float64, a1, a2 float64) float64 {
	if len(base) == 0 {
		return 0
	}
	s1, s2 = s1[:len(base)], s2[:len(base)]
	flips := 0
	for j, b := range base {
		scN := b + a1*s1[j]
		scNN := scN + a2*s2[j]
		if (scN >= 0) != (scNN >= 0) {
			flips++
		}
	}
	return float64(flips) / float64(len(base))
}

// Differ lets a spec supply its own model-difference metric v(m_a, m_b).
// Implementations must return values in [0, 1] with v(θ, θ) = 0.
type Differ interface {
	Diff(thetaA, thetaB []float64, holdout *dataset.Dataset) float64
}

// AbsoluteRMSDiff returns the paper's Appendix-C unnormalized regression
// difference sqrt(E[(m_a(x) − m_b(x))²]) scaled by 1/scale and clamped to
// [0, 1], for callers that need an absolute rather than relative tolerance.
func AbsoluteRMSDiff(spec Spec, thetaA, thetaB []float64, holdout *dataset.Dataset, scale float64) float64 {
	n := holdout.Len()
	if n == 0 {
		return 0
	}
	pa, pb := make([]float64, n), make([]float64, n)
	PredictInto(spec, thetaA, holdout.X, pa)
	PredictInto(spec, thetaB, holdout.X, pb)
	var sq float64
	for i, a := range pa {
		d := a - pb[i]
		sq += d * d
	}
	if scale <= 0 {
		scale = 1
	}
	return clamp01(math.Sqrt(sq/float64(n)) / scale)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Accuracy returns the fraction of holdout rows whose predicted label
// matches the true label (classification tasks only).
func Accuracy(spec Spec, theta []float64, ds *dataset.Dataset) float64 {
	n := ds.Len()
	if n == 0 {
		return math.NaN()
	}
	pred := make([]float64, n)
	PredictInto(spec, theta, ds.X, pred)
	correct := 0
	for i, p := range pred {
		if p == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// GeneralizationError returns the test error: misclassification rate for
// classification, normalized RMSE for regression.
func GeneralizationError(spec Spec, theta []float64, ds *dataset.Dataset) float64 {
	switch spec.Task() {
	case dataset.BinaryClassification, dataset.MultiClassification:
		return 1 - Accuracy(spec, theta, ds)
	default:
		n := ds.Len()
		if n == 0 {
			return math.NaN()
		}
		pred := make([]float64, n)
		PredictInto(spec, theta, ds.X, pred)
		var sq, base float64
		for i, p := range pred {
			d := p - ds.Y[i]
			sq += d * d
			base += ds.Y[i] * ds.Y[i]
		}
		denom := math.Sqrt(base / float64(n))
		if denom < 1e-12 {
			denom = 1e-12
		}
		return math.Sqrt(sq/float64(n)) / denom
	}
}

// GeneralizationBound is Lemma 1 of the paper: given the approximate
// model's generalization error εg and the model-difference bound ε, the
// full model's generalization error is at most εg + ε − εg·ε with
// probability ≥ 1−δ.
func GeneralizationBound(epsG, eps float64) float64 {
	return epsG + eps - epsG*eps
}
