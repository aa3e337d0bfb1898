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
	return softmaxLossGrad(z, int(y), x, k, d, gradAccum)
}

// softmaxLossGrad is ExampleLossGrad from x's k class logits z on: it
// returns ℓ = log Σ exp(z) − z_y and, when grad is non-nil, scatters the
// class coefficients p_c − 1{c=y} times x into grad's k blocks of d. It
// overwrites z. Every max-entropy loss and gradient ends here.
func softmaxLossGrad(z []float64, y int, x dataset.Row, k, d int, grad []float64) float64 {
	zy := z[y]
	lse := softmaxInPlace(z)
	if grad != nil {
		z[y] -= 1 // z now holds the per-class coefficients p_c − 1{c=y}
		scatterGrad(grad, z, x, k, d)
	}
	return lse - zy
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
// block is (1/n) Σᵢ p_c(δ_{cc'} − p_{c'}) xᵢxᵢᵀ, plus βI. A
// *dataset.SparseRow scatters its nnz x nnz block directly; any other row is
// densified into a scratch made at the first such row. Every surviving
// sparse term uses the dense path's exact expression and zero-skip guards,
// so the two paths are bit-identical. The class probabilities live on the
// stack for realistic class counts, as in ExampleLossGrad.
func (m MaxEntropy) Hessian(theta []float64, ds *dataset.Dataset) *linalg.Dense {
	d := ds.Dim
	k := len(theta) / d
	h := linalg.NewDense(k*d, k*d)
	var zbuf [maxFusedClasses]float64
	z := zbuf[:]
	if k > maxFusedClasses {
		z = make([]float64, k)
	}
	z = z[:k]
	var xbuf []float64
	for i := 0; i < ds.Len(); i++ {
		x := ds.X[i]
		logitsInto(theta, x, k, x.Dim(), z)
		softmaxInPlace(z)
		sp, sparse := x.(*dataset.SparseRow)
		if !sparse {
			if xbuf == nil {
				xbuf = make([]float64, d)
			}
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
