package models

import (
	"math"

	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// MaxEntropy is the multiclass softmax (maximum-entropy) classifier with L2
// regularization ("ME" in the paper). The parameter vector flattens a K x d
// weight matrix: class k occupies θ[k·d : (k+1)·d].
// ℓᵢ = −log softmax_{yᵢ}(z), z_k = θ_kᵀxᵢ; the per-example gradient block
// for class k is (p_k − 1{k=yᵢ})·xᵢ.
type MaxEntropy struct {
	Reg     float64
	Classes int
}

// Name implements Spec.
func (MaxEntropy) Name() string { return "maxent" }

// Task implements Spec.
func (MaxEntropy) Task() dataset.Task { return dataset.MultiClassification }

// ParamDim implements Spec.
func (m MaxEntropy) ParamDim(ds *dataset.Dataset) int { return ds.Dim * m.classes(ds) }

func (m MaxEntropy) classes(ds *dataset.Dataset) int {
	if m.Classes > 0 {
		return m.Classes
	}
	return ds.NumClasses
}

// Beta implements Spec.
func (m MaxEntropy) Beta() float64 { return m.Reg }

// logits computes z_k = θ_kᵀx for all classes (one fused pass over sparse
// rows).
func (m MaxEntropy) logits(theta []float64, x dataset.Row, k int) []float64 {
	z := make([]float64, k)
	logitsInto(theta, x, k, x.Dim(), z)
	return z
}

// softmaxInPlace converts logits to probabilities, returning the
// log-sum-exp for the loss.
func softmaxInPlace(z []float64) float64 {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum float64
	for i, v := range z {
		// exp(0) is exactly 1, so elements at the max (including ties)
		// skip the libm call without changing a single bit.
		e := 1.0
		if v != maxZ {
			e = math.Exp(v - maxZ)
		}
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
	return maxZ + math.Log(sum)
}

// ExampleLossGrad implements Spec. The per-class logits and the gradient
// scatter each make one fused pass over sparse rows; the logit scratch
// lives on the stack for realistic class counts, so the inner training
// loop is allocation-free.
func (m MaxEntropy) ExampleLossGrad(theta []float64, x dataset.Row, y float64, gradAccum []float64) float64 {
	d := x.Dim()
	k := len(theta) / d
	var zbuf [maxFusedClasses]float64
	z := zbuf[:]
	if k > maxFusedClasses {
		z = make([]float64, k)
	}
	z = z[:k]
	logitsInto(theta, x, k, d, z)
	yi := int(y)
	zy := z[yi]
	lse := softmaxInPlace(z)
	if gradAccum != nil {
		z[yi] -= 1 // z now holds the per-class coefficients p_c − 1{c=y}
		scatterGrad(gradAccum, z, x, k, d)
	}
	return lse - zy
}

// ExampleGradRow implements Spec. The returned row is sparse over the K·d
// parameter space whenever x is sparse (K·nnz stored entries).
func (m MaxEntropy) ExampleGradRow(theta []float64, x dataset.Row, y float64) dataset.Row {
	d := x.Dim()
	k := len(theta) / d
	z := m.logits(theta, x, k)
	yi := int(y)
	softmaxInPlace(z)
	z[yi] -= 1 // z now holds the per-class coefficients

	if sp, ok := x.(*dataset.SparseRow); ok {
		nnz := len(sp.Idx)
		idx := make([]int32, 0, k*nnz)
		val := make([]float64, 0, k*nnz)
		for c := 0; c < k; c++ {
			off := int32(c * d)
			coeff := z[c]
			for t, j := range sp.Idx {
				idx = append(idx, off+j)
				val = append(val, coeff*sp.Val[t])
			}
		}
		return &dataset.SparseRow{N: k * d, Idx: idx, Val: val}
	}
	out := make(dataset.DenseRow, k*d)
	for c := 0; c < k; c++ {
		if z[c] != 0 {
			x.AddTo(out[c*d:(c+1)*d], z[c])
		}
	}
	return out
}

// Predict implements Spec: argmax over class scores (the softmax is
// monotone, so logits suffice). Ties resolve to the lowest class index.
func (m MaxEntropy) Predict(theta []float64, x dataset.Row) float64 {
	d := x.Dim()
	k := len(theta) / d
	var zbuf [maxFusedClasses]float64
	z := zbuf[:]
	if k > maxFusedClasses {
		z = make([]float64, k)
	}
	z = z[:k]
	logitsInto(theta, x, k, d, z)
	return float64(argmax(z))
}

// Hessian implements Hessianer for low-dimensional problems: the (c,c')
// block is (1/n) Σᵢ p_c(δ_{cc'} − p_{c'}) xᵢxᵢᵀ, plus βI. Sparse datasets
// (chosen per-dataset by measured density) scatter each example's
// nnz x nnz block directly instead of densifying: every surviving term
// uses the dense path's exact expression and zero-skip guards, so the two
// paths are bit-identical.
func (m MaxEntropy) Hessian(theta []float64, ds *dataset.Dataset) *linalg.Dense {
	d := ds.Dim
	k := len(theta) / d
	h := linalg.NewDense(k*d, k*d)
	sparse := dataset.SparsePath(ds.X)
	var xbuf []float64
	if !sparse {
		xbuf = make([]float64, d)
	}
	for i := 0; i < ds.Len(); i++ {
		x := ds.X[i]
		z := m.logits(theta, x, k)
		softmaxInPlace(z)
		if !sparse {
			linalg.Fill(xbuf, 0)
			x.AddTo(xbuf, 1)
		}
		for c := 0; c < k; c++ {
			for c2 := 0; c2 < k; c2++ {
				w := -z[c] * z[c2]
				if c == c2 {
					w += z[c]
				}
				if w == 0 {
					continue
				}
				if sparse {
					sp := x.(*dataset.SparseRow)
					idx := sp.Idx
					val := sp.Val[:len(idx)]
					base := c2 * d
					for t, a := range idx {
						va := val[t]
						if va == 0 {
							continue
						}
						s := w * va
						if s == 0 {
							continue
						}
						row := h.Row(c*d + int(a))
						for u, b := range idx {
							row[base+int(b)] += s * val[u]
						}
					}
					continue
				}
				for a := 0; a < d; a++ {
					if xbuf[a] == 0 {
						continue
					}
					row := h.Row(c*d + a)
					linalg.Axpy(w*xbuf[a], xbuf, row[c2*d:(c2+1)*d])
				}
			}
		}
	}
	h.ScaleInPlace(1 / float64(ds.Len()))
	h.AddDiag(m.Reg)
	return h
}
