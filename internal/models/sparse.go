package models

import (
	"blinkml/internal/dataset"
	"blinkml/internal/linalg"
)

// Fused kernels for the multiclass hot path. The max-entropy model
// walks each example's features once per class — K dots for the logits, K
// scatters for the gradient — which re-reads the row's index/value arrays
// K times. The fused forms below walk the row once and keep K accumulators,
// loading each stored entry a single time. Per class, every term is still
// produced by the same expression in the same order as the per-class loop,
// so the results are bit-identical; only memory traffic changes.

// maxFusedClasses bounds the stack-allocated per-class scratch of the fused
// kernels; class counts beyond it fall back to the per-class loops.
const maxFusedClasses = 16

// logitsInto fills z[c] = θ_cᵀx for all k classes, where class c occupies
// theta[c*d : (c+1)*d]. Sparse rows take the single-pass fused path. Dense
// rows walk four classes at a time, one accumulator per class — a single
// dense dot is a chain of dependent adds, four of them overlap — each still
// summing j = 0…d−1 in order, so z[c] is x.Dot(θ_c) bit for bit. Any other
// row type computes the per-class dots directly.
func logitsInto(theta []float64, x dataset.Row, k, d int, z []float64) {
	switch r := x.(type) {
	case dataset.DenseRow:
		c := 0
		for ; c+4 <= k; c += 4 {
			t0 := theta[c*d:][:len(r)]
			t1 := theta[(c+1)*d:][:len(r)]
			t2 := theta[(c+2)*d:][:len(r)]
			t3 := theta[(c+3)*d:][:len(r)]
			var s0, s1, s2, s3 float64
			for j, v := range r {
				s0 += v * t0[j]
				s1 += v * t1[j]
				s2 += v * t2[j]
				s3 += v * t3[j]
			}
			z[c], z[c+1], z[c+2], z[c+3] = s0, s1, s2, s3
		}
		for ; c < k; c++ {
			z[c] = r.Dot(theta[c*d : (c+1)*d])
		}
	case *dataset.SparseRow:
		z = z[:k]
		for c := range z {
			z[c] = 0
		}
		idx := r.Idx
		val := r.Val[:len(idx)]
		for t, j := range idx {
			v := val[t]
			off := int(j)
			for c := range z {
				z[c] += v * theta[c*d+off]
			}
		}
	default:
		for c := 0; c < k; c++ {
			z[c] = x.Dot(theta[c*d : (c+1)*d])
		}
	}
}

// scatterGrad accumulates coef[c]·x into class block c of grad for every
// class with a non-zero coefficient. Zero coefficients skip their block
// entirely, exactly as the unfused per-class AddTo guard does; each touched
// slot receives the same single update `grad[slot] += coef*v` either way —
// through linalg.Axpy for a dense row.
func scatterGrad(grad []float64, coef []float64, x dataset.Row, k, d int) {
	if r, ok := x.(dataset.DenseRow); ok {
		for c := 0; c < k; c++ {
			linalg.Axpy(coef[c], r, grad[c*d:(c+1)*d])
		}
		return
	}
	sp, ok := x.(*dataset.SparseRow)
	if !ok || k > maxFusedClasses {
		for c := 0; c < k; c++ {
			if coef[c] != 0 {
				x.AddTo(grad[c*d:(c+1)*d], coef[c])
			}
		}
		return
	}
	var offs [maxFusedClasses]int
	var cs [maxFusedClasses]float64
	m := 0
	for c := 0; c < k; c++ {
		if coef[c] != 0 {
			offs[m] = c * d
			cs[m] = coef[c]
			m++
		}
	}
	idx := sp.Idx
	val := sp.Val[:len(idx)]
	for t, j := range idx {
		v := val[t]
		for a := 0; a < m; a++ {
			grad[offs[a]+int(j)] += cs[a] * v
		}
	}
}
