package models

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// LogisticRegression is the binary logistic classifier with L2
// regularization ("LR" in the paper).
// ℓᵢ = −[y log σ(θᵀx) + (1−y) log(1−σ(θᵀx))], qᵢ = (σ(θᵀxᵢ) − yᵢ)xᵢ.
type LogisticRegression struct {
	Reg float64
}

// Name implements Spec.
func (LogisticRegression) Name() string { return "logistic" }

// Task implements Spec.
func (LogisticRegression) Task() dataset.Task { return dataset.BinaryClassification }

// ParamDim implements Spec.
func (LogisticRegression) ParamDim(ds *dataset.Dataset) int { return ds.Dim }

// Beta implements Spec.
func (m LogisticRegression) Beta() float64 { return m.Reg }

// link implements glm: linalg.LogisticLinkAt, the loss log(1+e^z) − y·z and
// the coefficient σ(z) − y from one exp.
func (LogisticRegression) link(z, y float64) (loss, coef float64) {
	return linalg.LogisticLinkAt(z, y)
}

// ExampleLossGrad implements Spec.
func (m LogisticRegression) ExampleLossGrad(theta []float64, x dataset.Row, y float64, gradAccum []float64) float64 {
	loss, c := m.link(rowDot(x, theta), y)
	if gradAccum != nil {
		x.AddTo(gradAccum, c)
	}
	return loss
}

// ExampleGradRow implements Spec.
func (m LogisticRegression) ExampleGradRow(theta []float64, x dataset.Row, y float64) dataset.Row {
	_, c := m.link(rowDot(x, theta), y)
	return scaledRow(x, c)
}

// Predict implements Spec: the hard class label 1{σ(θᵀx) ≥ ½} = 1{θᵀx ≥ 0}.
func (LogisticRegression) Predict(theta []float64, x dataset.Row) float64 {
	if rowDot(x, theta) >= 0 {
		return 1
	}
	return 0
}

// Hessian implements Hessianer: H = (1/n) XᵀQX + βI with
// Qᵢᵢ = σ(θᵀxᵢ)(1−σ(θᵀxᵢ)) — the paper's §3.4 ClosedForm example.
func (m LogisticRegression) Hessian(theta []float64, ds *dataset.Dataset) *linalg.Dense {
	return glmHessian(ds, theta, m.Reg, func(z, y float64) float64 {
		s := sigmoid(z)
		return s * (1 - s)
	})
}
