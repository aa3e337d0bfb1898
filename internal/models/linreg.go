package models

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// LinearRegression is the Gaussian-noise MLE linear model with L2
// regularization ("Lin" in the paper, β = 0.001 by default in §5.1).
// ℓᵢ = ½(θᵀxᵢ − yᵢ)², qᵢ = (θᵀxᵢ − yᵢ)xᵢ.
type LinearRegression struct {
	Reg float64 // L2 coefficient β
}

// Name implements Spec.
func (LinearRegression) Name() string { return "linear" }

// Task implements Spec.
func (LinearRegression) Task() dataset.Task { return dataset.Regression }

// ParamDim implements Spec.
func (LinearRegression) ParamDim(ds *dataset.Dataset) int { return ds.Dim }

// Beta implements Spec.
func (m LinearRegression) Beta() float64 { return m.Reg }

// link implements glm: ℓ = ½(z − y)², coefficient z − y.
func (LinearRegression) link(z, y float64) (loss, coef float64) {
	r := z - y
	return 0.5 * r * r, r
}

// ExampleLossGrad implements Spec.
func (m LinearRegression) ExampleLossGrad(theta []float64, x dataset.Row, y float64, gradAccum []float64) float64 {
	loss, c := m.link(rowDot(x, theta), y)
	if gradAccum != nil {
		x.AddTo(gradAccum, c)
	}
	return loss
}

// ExampleGradRow implements Spec.
func (m LinearRegression) ExampleGradRow(theta []float64, x dataset.Row, y float64) dataset.Row {
	_, c := m.link(rowDot(x, theta), y)
	return scaledRow(x, c)
}

// Predict implements Spec: the real-valued regression estimate θᵀx.
func (LinearRegression) Predict(theta []float64, x dataset.Row) float64 {
	return rowDot(x, theta)
}

// Hessian implements Hessianer: H = (1/n) XᵀX + βI — the ClosedForm method
// for linear regression.
func (m LinearRegression) Hessian(theta []float64, ds *dataset.Dataset) *linalg.Dense {
	return glmHessian(ds, theta, m.Reg, func(z, y float64) float64 { return 1 })
}
