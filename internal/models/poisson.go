package models

import (
	"math"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// PoissonRegression is the log-link Poisson GLM, one of the MLE model
// classes the paper lists as supported (§1, §2.2).
// ℓᵢ = e^{θᵀxᵢ} − yᵢ·θᵀxᵢ (+ log yᵢ!, a constant), qᵢ = (e^{θᵀxᵢ} − yᵢ)xᵢ.
type PoissonRegression struct {
	Reg float64
}

// linPredCap keeps e^{θᵀx} finite during line-search probing; 30 already
// corresponds to a rate of ~10¹³ events, far beyond any realistic count.
const linPredCap = 30

// Name implements Spec.
func (PoissonRegression) Name() string { return "poisson" }

// Task implements Spec.
func (PoissonRegression) Task() dataset.Task { return dataset.Regression }

// ParamDim implements Spec.
func (PoissonRegression) ParamDim(ds *dataset.Dataset) int { return ds.Dim }

// Beta implements Spec.
func (m PoissonRegression) Beta() float64 { return m.Reg }

// link implements glm: ℓ = e^z − y·z, coefficient e^z − y, at the capped z.
func (PoissonRegression) link(z, y float64) (loss, coef float64) {
	if z > linPredCap {
		z = linPredCap
	}
	ez := math.Exp(z)
	return ez - y*z, ez - y
}

// ExampleLossGrad implements Spec.
func (m PoissonRegression) ExampleLossGrad(theta []float64, x dataset.Row, y float64, gradAccum []float64) float64 {
	loss, c := m.link(rowDot(x, theta), y)
	if gradAccum != nil {
		x.AddTo(gradAccum, c)
	}
	return loss
}

// Predict implements Spec: the expected count λ = e^{θᵀx}.
func (PoissonRegression) Predict(theta []float64, x dataset.Row) float64 {
	z := rowDot(x, theta)
	if z > linPredCap {
		z = linPredCap
	}
	return math.Exp(z)
}

// Hessian implements Hessianer: H = (1/n) Σ e^{θᵀxᵢ} xᵢxᵢᵀ + βI.
func (m PoissonRegression) Hessian(theta []float64, ds *dataset.Dataset) *linalg.Dense {
	return glmHessian(ds, theta, m.Reg, func(z, y float64) float64 {
		if z > linPredCap {
			z = linPredCap
		}
		return math.Exp(z)
	})
}
